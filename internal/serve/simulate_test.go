package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
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
		`{"scenario":{"cpus":65536,"tasks":[{"period_ns":1000000,"slice_ns":1000}]},"seed":1}`,
		`{"scenario":{"machine":"r415","cpus":9,"tasks":[{"period_ns":1000000,"slice_ns":1000}]},"seed":1}`,
	}
	for _, body := range cases {
		code, resp, _ := postJSON(t, ts.URL+"/v1/simulate", body)
		if code != http.StatusBadRequest {
			t.Fatalf("body %s: status %d (%s), want 400", body, code, resp)
		}
		// A machine larger than its preset is a scenario error.
		if strings.Contains(body, `"cpus"`) && !strings.Contains(resp, `"invalid_scenario"`) {
			t.Fatalf("body %s: %s, want code invalid_scenario", body, resp)
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

// testSimRequest is a small normalized simulate request.
func testSimRequest() SimulateRequest {
	return SimulateRequest{
		Scenario: whatif.Scenario{
			Tasks: []whatif.Task{{PeriodNs: 1_000_000, SliceNs: 100_000}},
		}.Normalize(),
		Seed: 1,
	}
}

// holdSlots takes every slot's node out of s, so callers wait until
// release puts them back.
func holdSlots(s *Server) (release func()) {
	held := make([]*whatif.Node, cap(s.sim.slots))
	for i := range held {
		held[i] = <-s.sim.slots
	}
	return func() {
		for _, n := range held {
			s.sim.slots <- n
		}
	}
}

// TestSimulateShedsWhenFull: with every slot held, depth callers wait and
// the next one sheds with the standard overload error carrying a retry
// quote that grows with the callers waiting ahead of it.
func TestSimulateShedsWhenFull(t *testing.T) {
	req := testSimRequest()
	var quotes []int64
	for _, depth := range []int{2, 4} {
		s, err := newServer(Config{Spec: testSpec, Shards: 1, SimWorkers: 1, SimQueueDepth: depth})
		if err != nil {
			t.Fatal(err)
		}
		release := holdSlots(s)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, depth)
		for i := 0; i < depth; i++ {
			go func() { _, err := s.Simulate(ctx, req); done <- err }()
		}
		// The callers wait for a slot; the next one must shed synchronously.
		waitForQueued(t, func() bool { return s.sim.waiting.Load() == int64(depth) })
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
		if got := s.sim.shed.Load(); got != 1 {
			t.Fatalf("shed counter %d, want 1", got)
		}
		cancel()
		for i := 0; i < depth; i++ {
			<-done
		}
		release()
		s.Close()
	}
	if quotes[1] <= quotes[0] {
		t.Fatalf("retry-after quotes %v do not grow with queue depth", quotes)
	}
}

// TestSimulateCanceledWhileWaiting: a caller whose context ends before it
// gets a slot returns the context's error without running and is counted
// in hrtd_whatif_canceled_total.
func TestSimulateCanceledWhileWaiting(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1, SimWorkers: 1})
	release := holdSlots(s)
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { _, err := s.Simulate(ctx, testSimRequest()); done <- err }()
	waitForQueued(t, func() bool { return s.sim.waiting.Load() == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter returned %v, want context.Canceled", err)
	}
	if got := s.sim.canceled.Load(); got != 1 {
		t.Fatalf("canceled counter %d, want 1", got)
	}
	if got := s.sim.waiting.Load(); got != 0 {
		t.Fatalf("%d callers still counted as waiting", got)
	}
	if got := s.sim.replications.Load(); got != 0 {
		t.Fatalf("canceled waiter ran %d replications", got)
	}
}

// TestCloseWaitsForSimulations: Close returns only after the simulations
// running and waiting for a slot have returned, and every later call
// answers ErrServerClosed.
func TestCloseWaitsForSimulations(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1, SimWorkers: 2})
	release := holdSlots(s)
	req := testSimRequest()
	const callers = 3
	done := make(chan error, callers)
	for range callers {
		go func() { _, err := s.Simulate(context.Background(), req); done <- err }()
	}
	waitForQueued(t, func() bool { return s.sim.waiting.Load() == callers })
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	waitForQueued(t, func() bool {
		s.closeMu.RLock()
		defer s.closeMu.RUnlock()
		return s.closed
	})
	select {
	case <-closed:
		t.Fatal("Close returned while simulations were waiting for a slot")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	<-closed
	// Close returned, so every call has already run its replications. (A
	// caller's send on done comes after Simulate returns, so it may still
	// be pending here.)
	if got := s.sim.replications.Load(); got != callers*int64(req.Scenario.Replications) {
		t.Fatalf("Close returned before the simulations did: %d replications, want %d",
			got, callers*req.Scenario.Replications)
	}
	for range callers {
		if err := <-done; err != nil {
			t.Fatalf("simulation under Close: %v", err)
		}
	}
	if _, err := s.Simulate(context.Background(), req); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Simulate after Close = %v, want ErrServerClosed", err)
	}
}

// benchSimBodies are shaped like the whatif-simulate benchmark's bodies:
// two tasks on two CPUs at a per-body period, a model from its menu,
// smi-storm on every other body, 16 replications.
func benchSimBodies() []string {
	periodsUs := []int64{100, 200, 250, 500, 1000}
	models := []string{"wcet", "full-random", "half-random", "random-0.6,1.1:normal"}
	bodies := make([]string, 8)
	for i := range bodies {
		p := periodsUs[i%len(periodsUs)] * 1000
		var faults string
		if i%2 == 0 {
			faults = `"faults":["smi-storm"],`
		}
		bodies[i] = fmt.Sprintf(`{"scenario":{"name":"perf-%d","cpus":2,"tasks":[`+
			`{"period_ns":%d,"slice_ns":%d,"cpu":0},{"period_ns":%d,"slice_ns":%d,"cpu":1}],`+
			`"model":%q,%s"replications":16},"seed":%d}`,
			i, p, p/5+p/11, p, p/10+p/23, models[i%len(models)], faults, 1000+i)
	}
	return bodies
}

// BenchmarkSimulateParallel drives the /v1/simulate handler from
// GOMAXPROCS goroutines over the benchmark-shaped bodies, against a
// server with its default GOMAXPROCS slots: at -cpu 1,2 it shows what the
// second slot buys.
func BenchmarkSimulateParallel(b *testing.B) {
	s, err := New(Config{Spec: testSpec, Shards: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	bodies := benchSimBodies()
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1))
		for pb.Next() {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(bodies[i%len(bodies)])))
			if w.Code != http.StatusOK {
				b.Errorf("status %d: %s", w.Code, w.Body)
				return
			}
			i++
		}
	})
}
