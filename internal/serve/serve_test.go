package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hrtsched/internal/core"
	"hrtsched/internal/plan"
)

var testSpec = plan.Spec{OverheadNs: 4_600, UtilizationLimit: 0.79}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Spec == (plan.Spec{}) {
		cfg.Spec = testSpec
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Spec: plan.Spec{UtilizationLimit: 0.79}, Shards: -1},
		{Spec: plan.Spec{UtilizationLimit: 0}},
		{Spec: plan.Spec{UtilizationLimit: 1.5}},
		{Spec: plan.Spec{OverheadNs: -1, UtilizationLimit: 0.79}},
		{Spec: plan.Spec{UtilizationLimit: 0.79}, QueueDepth: -2},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted: %+v", i, c)
		}
	}
	if err := (Config{Spec: testSpec}).Validate(); err != nil {
		t.Fatalf("zero config (defaults) rejected: %v", err)
	}
}

func TestAnalyzeMatchesPlanDirectly(t *testing.T) {
	s := newTestServer(t, Config{Shards: 4})
	sets := []plan.TaskSet{
		{{PeriodNs: 1_000_000, SliceNs: 700_000}},
		{{PeriodNs: 20_000, SliceNs: 14_000}},
		{{PeriodNs: 100_000, SliceNs: 30_000}, {PeriodNs: 200_000, SliceNs: 60_000}},
		nil,
	}
	for _, set := range sets {
		want := plan.Analyze(testSpec, set.Canonical())
		got, _, err := s.AnalyzeContext(context.Background(), set)
		if err != nil {
			t.Fatalf("Analyze(%v): %v", set, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("server verdict diverges from plan.Analyze:\nserver %+v\nplan   %+v", got, want)
		}
	}
}

func TestCacheHitByteIdentical(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	set := plan.TaskSet{{PeriodNs: 200_000, SliceNs: 60_000}, {PeriodNs: 100_000, SliceNs: 30_000}}

	v1, cached1, err := s.AnalyzeContext(context.Background(), set)
	if err != nil {
		t.Fatalf("first Analyze: %v", err)
	}
	if cached1 {
		t.Fatalf("first query reported a cache hit")
	}
	// Same set, different order: must hit the cache (canonical digest).
	reordered := plan.TaskSet{{PeriodNs: 100_000, SliceNs: 30_000}, {PeriodNs: 200_000, SliceNs: 60_000}}
	v2, cached2, err := s.AnalyzeContext(context.Background(), reordered)
	if err != nil {
		t.Fatalf("second Analyze: %v", err)
	}
	if !cached2 {
		t.Fatalf("repeat query missed the cache")
	}
	b1, _ := json.Marshal(v1)
	b2, _ := json.Marshal(v2)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cached answer not byte-identical:\n%s\n%s", b1, b2)
	}
	if !reflect.DeepEqual(v1, v2) {
		t.Fatalf("cached verdict struct differs: %+v vs %+v", v1, v2)
	}
	if rate := s.CacheHitRate(); rate != 0.5 {
		t.Fatalf("hit rate = %g, want 0.5 after one miss + one hit", rate)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRU(2)
	v := func(n int64) plan.Verdict { return plan.Verdict{Digest: uint64(n)} }
	c.put(1, v(1))
	c.put(2, v(2))
	c.get(1) // refresh 1; now 2 is oldest
	c.put(3, v(3))
	if _, ok := c.get(2); ok {
		t.Fatalf("LRU kept the least-recently-used entry")
	}
	if _, ok := c.get(1); !ok {
		t.Fatalf("LRU evicted a recently-used entry")
	}
	if got, _ := c.get(3); got.Digest != 3 {
		t.Fatalf("wrong verdict for key 3: %+v", got)
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

func TestLoadSheddingReturnsAdmissionError(t *testing.T) {
	// White-box: build the server without starting its workers, fill the
	// single shard's queue to capacity, and submit. With nobody draining,
	// the submit must shed — deterministically, regardless of GOMAXPROCS —
	// quoting a retry-after that grows with the work queued ahead of it.
	var quotes []int64
	for _, depth := range []int{2, 8} {
		s, err := newServer(Config{Spec: testSpec, Shards: 1, QueueDepth: depth})
		if err != nil {
			t.Fatalf("newServer: %v", err)
		}
		sh := s.shards[0]
		for i := 0; i < s.cfg.QueueDepth; i++ {
			sh.ch <- &request{}
		}

		_, _, err = s.AnalyzeContext(context.Background(), plan.TaskSet{{PeriodNs: 1_000_000, SliceNs: 1_000}})
		if err == nil {
			t.Fatalf("full queue accepted a query")
		}
		if !errors.Is(err, core.ErrAdmission) {
			t.Fatalf("shed error is not an admission error: %v", err)
		}
		var ae *core.AdmissionError
		if !errors.As(err, &ae) {
			t.Fatalf("shed error lacks structure: %v", err)
		}
		if ae.Reason != "server-overload" || ae.RetryAfterNs <= 0 {
			t.Fatalf("bad shed error: %+v", ae)
		}
		quotes = append(quotes, ae.RetryAfterNs)
		if got := s.ShedCount(); got != 1 {
			t.Fatalf("ShedCount = %d, want 1", got)
		}
		if !strings.Contains(s.reg.Render(), `hrtd_shed_total{shard="0"} 1`) {
			t.Fatalf("shed not visible in metrics:\n%s", s.reg.Render())
		}
	}
	if quotes[1] <= quotes[0] {
		t.Fatalf("retry-after quotes %v do not grow with queue depth", quotes)
	}
}

func TestHTTPShedAnswers429(t *testing.T) {
	s, err := newServer(Config{Spec: testSpec, Shards: 1, QueueDepth: 1})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	s.shards[0].ch <- &request{} // fill the queue; no worker drains it
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
		strings.NewReader(`{"tasks":[{"period_ns":1000000,"slice_ns":1000}]}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After header")
	}
	var body APIError
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode 429 body: %v", err)
	}
	if body.Code != "overloaded" || body.RetryAfterMs <= 0 {
		t.Fatalf("bad 429 body: %+v", body)
	}
	if !strings.Contains(body.Reason, "server-overload") {
		t.Fatalf("429 reason lost the admission detail: %+v", body)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	s, err := New(Config{Spec: testSpec, Shards: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Close()
	s.Close() // idempotent
	if _, _, err := s.AnalyzeContext(context.Background(), plan.TaskSet{{PeriodNs: 1_000_000, SliceNs: 1_000}}); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Analyze after Close: err = %v, want ErrServerClosed", err)
	}
}

func TestConcurrentQueriesAllAnswered(t *testing.T) {
	s := newTestServer(t, Config{Shards: 4, QueueDepth: 4096})
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Mix of repeated (cacheable) and unique sets.
				slice := int64(100_000 + (i%10)*7_000 + w)
				v, _, err := s.AnalyzeContext(context.Background(), plan.TaskSet{{PeriodNs: 1_000_000, SliceNs: slice}})
				if err != nil {
					errs <- fmt.Errorf("worker %d: %v", w, err)
					return
				}
				if !v.Admit {
					errs <- fmt.Errorf("worker %d: feasible set rejected: %+v", w, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var processed int64
	for _, sh := range s.shards {
		processed += sh.processed.Load()
	}
	if processed != workers*perWorker {
		t.Fatalf("processed %d queries, want %d", processed, workers*perWorker)
	}
	if s.CacheHitRate() == 0 {
		t.Fatalf("repeated queries produced no cache hits")
	}
}

func TestCapacityQuery(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	set := plan.TaskSet{{PeriodNs: 1_000_000, SliceNs: 300_000}}
	got, err := s.CapacityContext(context.Background(), set, 0)
	if err != nil {
		t.Fatalf("Capacity: %v", err)
	}
	want := plan.Capacity(testSpec, set.Canonical(), 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("server capacity diverges from plan.Capacity:\n%+v\n%+v", got, want)
	}
}

func TestHTTPAnalyzeRoundTrip(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"tasks":[{"period_ns":1000000,"slice_ns":700000}]}`
	post := func() (int, string, http.Header) {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b), resp.Header
	}
	code1, body1, hdr1 := post()
	code2, body2, hdr2 := post()
	if code1 != http.StatusOK || code2 != http.StatusOK {
		t.Fatalf("status = %d, %d; body %s", code1, code2, body1)
	}
	if body1 != body2 {
		t.Fatalf("cached HTTP answer not byte-identical:\n%s\n%s", body1, body2)
	}
	if hdr1.Get("X-Hrtd-Cache") != "miss" || hdr2.Get("X-Hrtd-Cache") != "hit" {
		t.Fatalf("cache headers = %q, %q; want miss, hit",
			hdr1.Get("X-Hrtd-Cache"), hdr2.Get("X-Hrtd-Cache"))
	}
	var v plan.Verdict
	if err := json.Unmarshal([]byte(body1), &v); err != nil {
		t.Fatalf("unmarshal verdict: %v", err)
	}
	if !v.Admit {
		t.Fatalf("feasible set rejected over HTTP: %s", body1)
	}

	// Malformed request: 400.
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(`{"nope":1}`))
	if err != nil {
		t.Fatalf("POST bad body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body status = %d, want 400", resp.StatusCode)
	}
	// Wrong method: 405.
	resp, err = http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatalf("GET analyze: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET analyze status = %d, want 405", resp.StatusCode)
	}
}

func TestHTTPMetricsAndHealthz(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Generate one miss and one hit so rates are non-zero.
	set := plan.TaskSet{{PeriodNs: 1_000_000, SliceNs: 500_000}}
	for i := 0; i < 2; i++ {
		if _, _, err := s.AnalyzeContext(context.Background(), set); err != nil {
			t.Fatalf("Analyze: %v", err)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(b)
	for _, want := range []string{
		"hrtd_queue_depth{shard=\"0\"}",
		"hrtd_cache_hit_rate 0.5",
		"hrtd_shed_total",
		"hrtd_latency_us_bucket",
		"hrtd_latency_quantile_us{q=\"0.99\"}",
		"# TYPE hrtd_latency_us histogram",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	hb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(hb), `"status":"ok"`) {
		t.Fatalf("healthz = %d %s", resp.StatusCode, hb)
	}
}
