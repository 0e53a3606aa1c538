package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"hrtsched/internal/plan"
)

func postJSON(t *testing.T, url, body string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), resp.Header
}

// TestHTTPLegacyAliasesAreGone checks that the pre-v1 spellings of the
// query routes answer the 404 not_found envelope like any unknown route,
// while their /v1 forms still answer.
func TestHTTPLegacyAliasesAreGone(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"tasks":[{"period_ns":1000000,"slice_ns":600000}]}`
	for _, route := range []string{"/analyze", "/capacity"} {
		code, respBody, _ := postJSON(t, ts.URL+route, body)
		var e APIError
		if err := json.Unmarshal([]byte(respBody), &e); err != nil ||
			code != http.StatusNotFound || e.Code != "not_found" || e.Reason == "" {
			t.Fatalf("%s: %d %s (%v), want the 404 not_found envelope", route, code, respBody, err)
		}
		if v1Code, v1Body, _ := postJSON(t, ts.URL+"/v1"+route, body); v1Code != http.StatusOK {
			t.Fatalf("/v1%s: %d %s", route, v1Code, v1Body)
		}
	}
}

// TestHTTPAnalyzeDigestCollisionMisses sends two distinct sets whose
// 64-bit digests collide (see plan's fnvCollision): the second must miss
// the cache and answer its own verdict, not the first set's.
func TestHTTPAnalyzeDigestCollisionMisses(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a := plan.TaskSet{{PeriodNs: 7_407_247_001, SliceNs: 3_395_736_401}}
	b := plan.TaskSet{{PeriodNs: 7_815_327_059, SliceNs: 2_963_696_194}}
	if a.Digest() != b.Digest() {
		t.Fatalf("digests differ: %x vs %x", a.Digest(), b.Digest())
	}
	for _, set := range []plan.TaskSet{a, b} {
		req, _ := json.Marshal(analyzeRequest{Tasks: set})
		code, body, hdr := postJSON(t, ts.URL+"/v1/analyze", string(req))
		if code != http.StatusOK || hdr.Get("X-Hrtd-Cache") != "miss" {
			t.Fatalf("%v: %d, X-Hrtd-Cache %q, want 200 and a miss", set, code, hdr.Get("X-Hrtd-Cache"))
		}
		want, _ := json.Marshal(plan.Analyze(testSpec, set))
		if strings.TrimSuffix(body, "\n") != string(want) {
			t.Fatalf("%v: body diverges from plan.Analyze:\n got %s\nwant %s", set, body, want)
		}
	}
}

func TestHTTPAnalyzeBatchMatchesSingleRoute(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	items := []string{
		`{"tasks":[{"period_ns":1000000,"slice_ns":600000}]}`,
		`{"tasks":[{"period_ns":2000000,"slice_ns":100000},{"period_ns":1000000,"slice_ns":50000}]}`,
		`{"tasks":[{"period_ns":1000000,"slice_ns":999999}]}`,
	}
	var singles []string
	for _, it := range items {
		code, body, _ := postJSON(t, ts.URL+"/v1/analyze", it)
		if code != http.StatusOK {
			t.Fatalf("single analyze: %d %s", code, body)
		}
		singles = append(singles, strings.TrimSuffix(body, "\n"))
	}
	code, body, hdr := postJSON(t, ts.URL+"/v1/analyze-batch",
		`{"items":[`+strings.Join(items, ",")+`]}`)
	if code != http.StatusOK {
		t.Fatalf("batch analyze: %d %s", code, body)
	}
	var env struct {
		Items []json.RawMessage `json:"items"`
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil || len(env.Items) != len(items) {
		t.Fatalf("batch envelope: %s (%v)", body, err)
	}
	for i, raw := range env.Items {
		if string(raw) != singles[i] {
			t.Fatalf("item %d diverges from single route:\nbatch:  %s\nsingle: %s", i, raw, singles[i])
		}
	}
	// Items 0 and 2 repeat after the single calls primed the cache; all
	// bits must be present and comma-joined in input order.
	bits := strings.Split(hdr.Get("X-Hrtd-Cache"), ",")
	if len(bits) != len(items) {
		t.Fatalf("cache header bits = %q, want %d entries", hdr.Get("X-Hrtd-Cache"), len(items))
	}
	for i, b := range bits {
		if b != "hit" && b != "miss" {
			t.Fatalf("cache bit %d = %q", i, b)
		}
	}

	// A body longer than maxScanBody streams through encoding/json; the
	// same batch padded past that size answers the same bytes.
	padded := `{"items":[` + strings.Join(items, ","+strings.Repeat(" ", maxScanBody)) + `]}`
	if pcode, pbody, _ := postJSON(t, ts.URL+"/v1/analyze-batch", padded); pcode != code || pbody != body {
		t.Fatalf("padded batch: %d %s, want %d %s", pcode, pbody, code, body)
	}

	// Oversized batch: 400 envelope.
	big := `{"items":[` + strings.Repeat(items[0]+",", DefaultMaxBatchItems) + items[0] + `]}`
	code, body, _ = postJSON(t, ts.URL+"/v1/analyze-batch", big)
	var e APIError
	json.Unmarshal([]byte(body), &e) //nolint:errcheck
	if code != http.StatusBadRequest || e.Code != "bad_request" {
		t.Fatalf("oversized batch: %d %s", code, body)
	}
}

func TestHTTPPlaceBatch(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	c := newTestCluster(t, ClusterConfig{Nodes: 2})
	ts := httptest.NewServer(s.HandlerWithCluster(c))
	defer ts.Close()

	// Seed one placement so the batch can collide with it.
	code, body, _ := postJSON(t, ts.URL+"/v1/cluster/place",
		`{"id":"seeded","tasks":[{"period_ns":100000,"slice_ns":20000}]}`)
	if code != http.StatusOK {
		t.Fatalf("seed place: %d %s", code, body)
	}
	singleBody := strings.TrimSuffix(body, "\n")

	code, body, _ = postJSON(t, ts.URL+"/v1/cluster/place-batch",
		`{"items":[`+
			`{"id":"batch-a","tasks":[{"period_ns":100000,"slice_ns":20000}]},`+
			`{"id":"seeded","tasks":[{"period_ns":100000,"slice_ns":20000}]},`+
			`{"id":"batch-b","tasks":[{"period_ns":200000,"slice_ns":10000}]}]}`)
	if code != http.StatusOK {
		t.Fatalf("place-batch: %d %s", code, body)
	}
	var env struct {
		Items []PlaceBatchEntry `json:"items"`
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil || len(env.Items) != 3 {
		t.Fatalf("batch envelope: %s (%v)", body, err)
	}
	if env.Items[0].ID != "batch-a" || env.Items[0].Error != nil || env.Items[0].Result == nil || !env.Items[0].Result.Placed {
		t.Fatalf("item 0: %+v", env.Items[0])
	}
	if env.Items[1].ID != "seeded" || env.Items[1].Result != nil ||
		env.Items[1].Error == nil || env.Items[1].Error.Code != "conflict" {
		t.Fatalf("item 1 should be a conflict envelope: %+v", env.Items[1])
	}
	if env.Items[2].ID != "batch-b" || env.Items[2].Error != nil || env.Items[2].Result == nil {
		t.Fatalf("item 2: %+v", env.Items[2])
	}

	// A one-item batch result marshals byte-identically to the single
	// route's body for the same request.
	raw, err := json.Marshal(env.Items[0].Result)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var seeded PlaceResult
	if err := json.Unmarshal([]byte(singleBody), &seeded); err != nil {
		t.Fatalf("single body: %v", err)
	}
	var batched PlaceResult
	if err := json.Unmarshal(raw, &batched); err != nil {
		t.Fatalf("batch item: %v", err)
	}
	if batched.Placed != seeded.Placed || batched.Verdict.Admit != seeded.Verdict.Admit {
		t.Fatalf("batch item shape diverges: single=%s batch=%s", singleBody, raw)
	}
}

func TestHTTPErrorEnvelopeShape(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	decode := func(body string) APIError {
		t.Helper()
		var e APIError
		if err := json.Unmarshal([]byte(body), &e); err != nil {
			t.Fatalf("error body is not the envelope: %v in %s", err, body)
		}
		if e.Code == "" || e.Reason == "" {
			t.Fatalf("envelope missing code/reason: %s", body)
		}
		return e
	}

	code, body, _ := postJSON(t, ts.URL+"/v1/analyze", `{"nope":1}`)
	if e := decode(body); code != http.StatusBadRequest || e.Code != "bad_request" {
		t.Fatalf("bad request: %d %s", code, body)
	}
	resp, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if e := decode(string(b)); resp.StatusCode != http.StatusMethodNotAllowed || e.Code != "method_not_allowed" {
		t.Fatalf("method not allowed: %d %s", resp.StatusCode, b)
	}
	code, body, _ = postJSON(t, ts.URL+"/v1/cluster/place", `{"id":"x","tasks":[]}`)
	if e := decode(body); code != http.StatusNotFound || e.Code != "not_found" {
		t.Fatalf("cluster route without cluster: %d %s", code, body)
	}

	// Bodies off the canonical spelling — case-folded and escaped keys,
	// null, exponent and fraction integers, duplicate and unknown keys,
	// trailing bytes, no body, GET — answer exactly what encoding/json
	// decided before the hot routes had a scanner, in this order on a
	// fresh two-node cluster.
	cs := httptest.NewServer(s.HandlerWithCluster(newTestCluster(t, ClusterConfig{Nodes: 2})))
	defer cs.Close()
	replayNonCanonical(t, cs.URL)
}

// replayNonCanonical sends every pinned request of
// testdata/noncanonical.json to base in order and requires its pinned
// status and bytes.
func replayNonCanonical(t *testing.T, base string) {
	t.Helper()
	for i, tc := range loadNonCanonical(t) {
		req, err := http.NewRequest(tc.Method, base+tc.Path, strings.NewReader(tc.Body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.Method, tc.Path, err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.Status || string(got) != tc.Want {
			t.Fatalf("case %d: %s %s %s:\n got %d %s\nwant %d %s",
				i, tc.Method, tc.Path, tc.Body, resp.StatusCode, got, tc.Status, tc.Want)
		}
	}
}

// nonCanonicalCase is one pinned request of testdata/noncanonical.json,
// which the route package's byte-identity test replays too.
type nonCanonicalCase struct {
	Method string `json:"method"`
	Path   string `json:"path"`
	Body   string `json:"body"`
	Status int    `json:"status"`
	Want   string `json:"want"`
}

func loadNonCanonical(t *testing.T) []nonCanonicalCase {
	t.Helper()
	raw, err := os.ReadFile("testdata/noncanonical.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []nonCanonicalCase
	if err := json.Unmarshal(raw, &cases); err != nil || len(cases) == 0 {
		t.Fatalf("testdata/noncanonical.json: %d cases (%v)", len(cases), err)
	}
	return cases
}

func TestHTTPClusterEndpoints(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	c := newTestCluster(t, ClusterConfig{Nodes: 2})
	ts := httptest.NewServer(s.HandlerWithCluster(c))
	defer ts.Close()

	// Place.
	code, body, _ := postJSON(t, ts.URL+"/v1/cluster/place",
		`{"id":"svc-a","tasks":[{"period_ns":100000,"slice_ns":20000}]}`)
	if code != http.StatusOK {
		t.Fatalf("place: %d %s", code, body)
	}
	var res PlaceResult
	if err := json.Unmarshal([]byte(body), &res); err != nil || !res.Placed || res.Node != 0 {
		t.Fatalf("place result: %s (%v)", body, err)
	}

	// Duplicate id: 409 conflict envelope.
	code, body, _ = postJSON(t, ts.URL+"/v1/cluster/place",
		`{"id":"svc-a","tasks":[{"period_ns":100000,"slice_ns":20000}]}`)
	var e APIError
	json.Unmarshal([]byte(body), &e) //nolint:errcheck
	if code != http.StatusConflict || e.Code != "conflict" {
		t.Fatalf("duplicate place: %d %s", code, body)
	}

	// Status.
	resp, err := http.Get(ts.URL + "/v1/cluster/status")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st ClusterStatus
	if err := json.Unmarshal(b, &st); err != nil || st.Placed != 1 || len(st.Nodes) != 2 {
		t.Fatalf("status body: %s (%v)", b, err)
	}

	// Drain, rebalance, undrain, remove.
	if code, body, _ = postJSON(t, ts.URL+"/v1/cluster/drain", `{"node":0}`); code != http.StatusOK {
		t.Fatalf("drain: %d %s", code, body)
	}
	var rep DrainReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil || rep.Moved != 1 {
		t.Fatalf("drain report: %s (%v)", body, err)
	}
	if code, body, _ = postJSON(t, ts.URL+"/v1/cluster/undrain", `{"node":0}`); code != http.StatusOK {
		t.Fatalf("undrain: %d %s", code, body)
	}
	if code, body, _ = postJSON(t, ts.URL+"/v1/cluster/rebalance", `{}`); code != http.StatusOK {
		t.Fatalf("rebalance: %d %s", code, body)
	}
	if code, body, _ = postJSON(t, ts.URL+"/v1/cluster/remove", `{"id":"svc-a"}`); code != http.StatusOK {
		t.Fatalf("remove: %d %s", code, body)
	}
	// Unknown id: 404 envelope.
	code, body, _ = postJSON(t, ts.URL+"/v1/cluster/remove", `{"id":"svc-a"}`)
	json.Unmarshal([]byte(body), &e) //nolint:errcheck
	if code != http.StatusNotFound || e.Code != "not_found" {
		t.Fatalf("remove unknown: %d %s", code, body)
	}
	// Unknown node: 404 envelope.
	code, body, _ = postJSON(t, ts.URL+"/v1/cluster/drain", `{"node":7}`)
	json.Unmarshal([]byte(body), &e) //nolint:errcheck
	if code != http.StatusNotFound || e.Code != "not_found" {
		t.Fatalf("drain unknown node: %d %s", code, body)
	}
}

func TestServerContextCancellation(t *testing.T) {
	// White-box: no workers, so the request stays queued while we cancel.
	s, err := newServer(Config{Spec: testSpec, Shards: 1})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.AnalyzeContext(ctx, plan.TaskSet{{PeriodNs: 1_000_000, SliceNs: 1_000}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query error = %v", err)
	}
	// The queued request is dropped unprocessed when the shard gets to it.
	sh := s.shards[0]
	r := <-sh.ch
	s.process(sh, []*request{r})
	if sh.canceled.Load() != 1 || sh.processed.Load() != 0 {
		t.Fatalf("canceled=%d processed=%d, want 1/0", sh.canceled.Load(), sh.processed.Load())
	}
	if !strings.Contains(s.reg.Render(), `hrtd_canceled_total{shard="0"} 1`) {
		t.Fatalf("canceled drop not visible in metrics:\n%s", s.reg.Render())
	}
}
