package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hrtsched/internal/core"
	"hrtsched/internal/whatif"
)

func waitForQueued(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never held")
}

const simBody = `{"scenario":{"name":"t","cpus":2,"tasks":[` +
	`{"period_ns":1000000,"slice_ns":400000,"cpu":0},` +
	`{"period_ns":1000000,"slice_ns":300000,"cpu":1}],` +
	`"model":"half-random","faults":["smi-storm"],"replications":3},"seed":7}`

// TestHTTPSimulateDeterministic: repeating the same request yields
// byte-identical response bodies.
func TestHTTPSimulateDeterministic(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code1, body1, _ := postJSON(t, ts.URL+"/v1/simulate", simBody)
	code2, body2, _ := postJSON(t, ts.URL+"/v1/simulate", simBody)
	if code1 != http.StatusOK || code2 != http.StatusOK {
		t.Fatalf("status %d/%d: %s", code1, code2, body1)
	}
	if body1 != body2 {
		t.Fatalf("repeated request bodies differ:\n%s\n--- vs ---\n%s", body1, body2)
	}
	var rep whatif.Report
	if err := json.Unmarshal([]byte(body1), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Replications != 3 || rep.Seed != 7 || rep.Model != "half-random" {
		t.Fatalf("report fields wrong: %+v", rep)
	}
}

func TestHTTPSimulateRejectsInvalid(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []string{
		`{"scenario":{"tasks":[]},"seed":1}`,
		`{"scenario":{"tasks":[{"period_ns":1000,"slice_ns":2000}]},"seed":1}`,
		`{"scenario":{"tasks":[{"period_ns":1000000,"slice_ns":1000}],"model":"bogus"},"seed":1}`,
		`{"scenario":{"tasks":[{"period_ns":1000000,"slice_ns":1000}],"faults":["nope"]},"seed":1}`,
		`{"bogus_field":1}`,
	}
	for _, body := range cases {
		code, resp, _ := postJSON(t, ts.URL+"/v1/simulate", body)
		if code != http.StatusBadRequest {
			t.Fatalf("body %s: status %d (%s), want 400", body, code, resp)
		}
	}
	// GET is not allowed.
	resp, err := http.Get(ts.URL + "/v1/simulate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", resp.StatusCode)
	}
}

// TestSimulateShedsWhenFull: with no workers draining, the queue fills and
// Simulate sheds with the standard overload error carrying a retry quote
// that grows with the jobs queued ahead of it.
func TestSimulateShedsWhenFull(t *testing.T) {
	req := SimulateRequest{
		Scenario: whatif.Scenario{
			Tasks: []whatif.Task{{PeriodNs: 1_000_000, SliceNs: 100_000}},
		}.Normalize(),
		Seed: 1,
	}
	ctx := context.Background()
	var quotes []int64
	for _, depth := range []int{2, 4} {
		s, err := newServer(Config{Spec: testSpec, Shards: 1, SimWorkers: 1, SimQueueDepth: depth})
		if err != nil {
			t.Fatal(err)
		}
		// newServer never started the pool workers, so jobs queue forever.
		for i := 0; i < depth; i++ {
			go s.Simulate(ctx, req) //nolint:errcheck // parks in the queue
		}
		// The queued jobs park; the next submit must shed synchronously.
		waitForQueued(t, func() bool { return len(s.sim.ch) == depth })
		_, err = s.Simulate(ctx, req)
		var adm *core.AdmissionError
		if !errors.As(err, &adm) {
			t.Fatalf("error = %v, want AdmissionError", err)
		}
		if adm.Reason != "server-overload" || adm.RetryAfterNs <= 0 {
			t.Fatalf("shed error = %+v", adm)
		}
		quotes = append(quotes, adm.RetryAfterNs)
		// Envelope mapping: 429 with Retry-After.
		status, e, secs := queryError(err)
		if status != http.StatusTooManyRequests || e.Code != "overloaded" || secs <= 0 {
			t.Fatalf("mapped to %d %+v secs=%d", status, e, secs)
		}
	}
	if quotes[1] <= quotes[0] {
		t.Fatalf("retry-after quotes %v do not grow with queue depth", quotes)
	}
}
