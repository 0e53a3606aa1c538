package client

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hrtsched/internal/serve"
	"hrtsched/internal/sim"
)

// TestEnvelopeRetryAfterAndUnreachable: a non-2xx reply keeps its status,
// envelope and Retry-After; a body that is no envelope still yields one; a
// dead server and an undecodable 2xx are both unreachable.
func TestEnvelopeRetryAfterAndUnreachable(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Path {
		case "/v1/shed":
			serve.WriteAPIError(w, http.StatusTooManyRequests,
				serve.APIError{Code: "overloaded", Reason: "server-overload", RetryAfterMs: 1500}, 2)
		case "/v1/garbled-error":
			w.WriteHeader(http.StatusBadGateway)
			io.WriteString(w, "<html>") //nolint:errcheck
		case "/v1/garbled-ok":
			io.WriteString(w, "<html>") //nolint:errcheck
		}
	}))
	defer ts.Close()
	c := New(ts.URL, time.Second, 0)
	ctx := context.Background()

	err := c.Post(ctx, "/v1/shed", struct{}{}, nil)
	var env *EnvelopeError
	if !errors.As(err, &env) {
		t.Fatalf("429 did not map to EnvelopeError: %v", err)
	}
	if env.Status != http.StatusTooManyRequests || env.Envelope.Code != "overloaded" ||
		env.Envelope.RetryAfterMs != 1500 || env.RetryAfterSecs != 2 || !Shed(err) {
		t.Fatalf("envelope lost fidelity: %+v", env)
	}
	err = c.Get(ctx, "/v1/garbled-error", nil)
	if !errors.As(err, &env) || env.Status != http.StatusBadGateway || env.Envelope.Code != "internal" || Shed(err) {
		t.Fatalf("garbled error reply = %v, want a 502 internal envelope", err)
	}
	var out struct{}
	if err := c.Get(ctx, "/v1/garbled-ok", &out); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("undecodable 2xx = %v, want ErrUnreachable", err)
	}

	ts.Close()
	if err := c.Post(ctx, "/v1/shed", []byte(`{}`), nil); !errors.Is(err, ErrUnreachable) || Shed(err) {
		t.Fatalf("dead server error = %v, want ErrUnreachable", err)
	}
}

// TestRedirectReplaysBody: a 307 from a follower is followed to the leader
// with the same method and body bytes, the hop is counted, and the
// leader's reply decodes into the caller's type.
func TestRedirectReplaysBody(t *testing.T) {
	const body = `{"id":"a","tasks":[{"period_ns":1000000,"slice_ns":100000}]}`
	leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		got, _ := io.ReadAll(req.Body)
		if req.Method != http.MethodPost || string(got) != body ||
			req.Header.Get("Content-Type") != "application/json" {
			http.Error(w, "body not replayed", http.StatusBadRequest)
			return
		}
		w.Write(serve.PlaceResult{Placed: true, Node: 3}.AppendJSON(nil)) //nolint:errcheck
	}))
	defer leader.Close()
	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Location", leader.URL+req.URL.Path)
		serve.WriteAPIError(w, http.StatusTemporaryRedirect, serve.APIError{Code: "not_leader", Reason: "follower"}, 0)
	}))
	defer follower.Close()

	c := New(follower.URL+"/", time.Second, 4)
	var res serve.PlaceResult
	if err := c.Post(context.Background(), "/v1/cluster/place", []byte(body), &res); err != nil {
		t.Fatalf("redirected place: %v", err)
	}
	if !res.Placed || res.Node != 3 || c.Redirects() != 1 {
		t.Fatalf("result %+v after %d redirects, want placed on node 3 after 1", res, c.Redirects())
	}
}

// TestBackoffBounds: the wait spreads over [base/2, 3·base/2), where the
// base is the reply's Retry-After seconds capped at 2 s, or 50 ms.
func TestBackoffBounds(t *testing.T) {
	rng := sim.NewRand(1)
	for _, tc := range []struct {
		err  error
		base time.Duration
	}{
		{ErrUnreachable, 50 * time.Millisecond},
		{&EnvelopeError{Status: http.StatusTooManyRequests}, 50 * time.Millisecond},
		{&EnvelopeError{Status: http.StatusServiceUnavailable, RetryAfterSecs: 1}, time.Second},
		{&EnvelopeError{Status: http.StatusServiceUnavailable, RetryAfterSecs: 1 << 62}, 2 * time.Second},
	} {
		lo, hi := tc.base, tc.base
		for i := 0; i < 1000; i++ {
			d := Backoff(tc.err, rng)
			lo, hi = min(lo, d), max(hi, d)
		}
		if lo < tc.base/2 || hi >= tc.base*3/2 {
			t.Errorf("Backoff(%v) spans [%v, %v], want within [%v, %v)", tc.err, lo, hi, tc.base/2, tc.base*3/2)
		}
		if hi-lo < tc.base/2 {
			t.Errorf("Backoff(%v) spans only [%v, %v]: no jitter", tc.err, lo, hi)
		}
	}
}
