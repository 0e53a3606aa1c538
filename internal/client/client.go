// Package client is the one Go client of hrtd's /v1 HTTP contract. It
// encodes a typed request body (or sends pre-encoded bytes verbatim),
// follows 307 leader redirects with the body replayed, decodes a 2xx reply
// into the caller's type, and maps every failure onto two errors: an
// EnvelopeError carrying the server's v1 error envelope, or ErrUnreachable
// for a transport failure. It never retries; callers that do space their
// attempts with Backoff.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hrtsched/internal/serve"
	"hrtsched/internal/sim"
)

// ErrUnreachable reports that the server could not be reached at all, or
// answered a 2xx body that does not decode: a transport failure, not a
// protocol error.
var ErrUnreachable = errors.New("client: server unreachable")

// EnvelopeError is a non-2xx v1 reply: its status, its error envelope, and
// its Retry-After header in whole seconds (0 when absent). The shard router
// re-emits all three unchanged, so a group's 429/409/404/503 contracts
// survive the extra hop byte-identically.
type EnvelopeError struct {
	Status         int
	Envelope       serve.APIError
	RetryAfterSecs int64
}

// Error implements error.
func (e *EnvelopeError) Error() string {
	return fmt.Sprintf("client: server answered %d %s: %s", e.Status, e.Envelope.Code, e.Envelope.Reason)
}

// Is maps envelope codes back onto the serve sentinels, so callers can
// errors.Is a remote answer exactly like a local one.
func (e *EnvelopeError) Is(target error) bool {
	switch e.Envelope.Code {
	case "not_found":
		return target == serve.ErrUnknownID || target == serve.ErrUnknownNode
	case "conflict":
		return target == serve.ErrDuplicateID
	case "no_leader":
		return target == serve.ErrNoLeader
	case "indeterminate":
		return target == serve.ErrIndeterminate
	case "unavailable":
		return target == serve.ErrClusterClosed
	}
	return false
}

// ItemError rebuilds the error of one per-item envelope embedded in a 2xx
// batch reply, with the status the v1 contract pairs with its code.
func ItemError(e serve.APIError) *EnvelopeError {
	return &EnvelopeError{Status: serve.StatusForCode(e.Code), Envelope: e}
}

// Raw receives a 2xx reply undecoded: its headers and body bytes.
type Raw struct {
	Header http.Header
	Body   []byte
}

// maxRedirects caps the 307 hops one request follows.
const maxRedirects = 5

// Client speaks /v1 to one server. It is safe for concurrent use.
type Client struct {
	base      string
	hc        *http.Client
	redirects atomic.Int64
}

// New returns a client for the server at baseURL ("http://host:port").
// The timeout bounds each request, redirects included; maxIdle sizes the
// keep-alive pool (0 keeps net/http's default transport).
func New(baseURL string, timeout time.Duration, maxIdle int) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/")}
	c.hc = &http.Client{
		Timeout: timeout,
		// A follower answers mutations with 307 + Location: leader. The
		// standard client re-sends the body (do sends a bytes.Reader, for
		// which GetBody is set); the hook counts the hops and keeps the cap.
		CheckRedirect: func(req *http.Request, via []*http.Request) error {
			if len(via) >= maxRedirects {
				return fmt.Errorf("stopped after %d redirects", maxRedirects)
			}
			c.redirects.Add(1)
			return nil
		},
	}
	if maxIdle > 0 {
		c.hc.Transport = &http.Transport{MaxIdleConns: maxIdle, MaxIdleConnsPerHost: maxIdle}
	}
	return c
}

// Redirects returns how many 307 leader redirects the client has followed.
func (c *Client) Redirects() int64 { return c.redirects.Load() }

// Get fetches path and decodes a 2xx reply into out (see Post).
func (c *Client) Get(ctx context.Context, path string, out any) error {
	return c.do(ctx, http.MethodGet, path, nil, out)
}

// Post sends body to path: a []byte goes verbatim, anything else is
// encoded as JSON. A 2xx reply decodes into out: a *Raw takes it
// undecoded, nil discards it, anything else is a JSON target.
func (c *Client) Post(ctx context.Context, path string, body, out any) error {
	buf, ok := body.([]byte)
	if !ok {
		var err error
		if buf, err = json.Marshal(body); err != nil {
			return fmt.Errorf("client: encoding %s: %w", path, err)
		}
	}
	return c.do(ctx, http.MethodPost, path, buf, out)
}

func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		e := &EnvelopeError{Status: resp.StatusCode}
		if json.Unmarshal(b, &e.Envelope) != nil || e.Envelope.Code == "" {
			e.Envelope = serve.APIError{Code: "internal",
				Reason: fmt.Sprintf("server answered %d with an undecodable body", resp.StatusCode)}
		}
		if secs, perr := strconv.ParseInt(strings.TrimSpace(resp.Header.Get("Retry-After")), 10, 64); perr == nil && secs > 0 {
			e.RetryAfterSecs = secs
		}
		return e
	}
	if err != nil {
		return fmt.Errorf("%w: reading %s: %v", ErrUnreachable, path, err)
	}
	switch out := out.(type) {
	case nil:
	case *Raw:
		out.Header, out.Body = resp.Header, b
	default:
		if err := json.Unmarshal(b, out); err != nil {
			return fmt.Errorf("%w: decoding %s: %v", ErrUnreachable, path, err)
		}
	}
	return nil
}

// Shed reports whether err is a 429 or 503 reply: load the server asked
// the caller to back off from.
func Shed(err error) bool {
	var e *EnvelopeError
	return errors.As(err, &e) &&
		(e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable)
}

// Backoff says how long to wait before retrying after err. It honors a
// shed reply's Retry-After seconds (hrtd sends 1 while a cluster has no
// ready leader) over a 50 ms base, caps the base at 2 s, and spreads the
// wait across [base/2, 3·base/2) so callers shed together don't retry
// together.
func Backoff(err error, rng *sim.Rand) time.Duration {
	base := 50 * time.Millisecond
	var e *EnvelopeError
	if errors.As(err, &e) && e.RetryAfterSecs > 0 {
		base = time.Duration(min(e.RetryAfterSecs, 2)) * time.Second
	}
	return base/2 + time.Duration(rng.Int63n(int64(base)))
}
