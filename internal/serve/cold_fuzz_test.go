package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

// coldRoutes are the routes FuzzColdBodies covers: those whose bodies only
// encoding/json reads. An input is a route path, one space, and the body.
var coldRoutes = []string{
	"/v1/cluster/drain", "/v1/cluster/undrain", "/v1/cluster/rebalance",
	"/v1/dag/place", "/v1/dag/analyze", "/v1/simulate",
}

// FuzzColdBodies posts arbitrary bytes to drain, undrain, rebalance,
// /v1/dag/place and /v1/dag/analyze on a fresh two-node cluster per input.
// No input may panic, answer the internal envelope, or answer a non-2xx
// status other than the one StatusForCode pairs with its envelope code;
// every 2xx body is JSON. A /v1/simulate body goes through decode,
// Normalize and Validate only, so no input starts a replication run.
func FuzzColdBodies(f *testing.F) {
	srv, err := New(Config{Spec: testSpec, Shards: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	f.Fuzz(func(t *testing.T, data []byte) {
		path, body, _ := strings.Cut(string(data), " ")
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body))
		req.URL.Path = path
		switch {
		case path == "/v1/simulate":
			var sim SimulateRequest
			if decodeBody(rec, req, &sim) {
				sim.Scenario.Normalize().Validate() //nolint:errcheck — either answer is in contract
				return
			}
		case slices.Contains(coldRoutes, path):
			srv.HandlerWithCluster(newTestCluster(t, ClusterConfig{Nodes: 2})).ServeHTTP(rec, req)
		default:
			return
		}
		checkV1Reply(t, path, body, rec)
	})
}

// checkV1Reply holds one answer to the v1 contract: JSON, and on any
// non-2xx status an APIError whose code is known, is not internal, and
// pairs with that status.
func checkV1Reply(t *testing.T, path, body string, rec *httptest.ResponseRecorder) {
	t.Helper()
	reply := rec.Body.Bytes()
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s %q: Content-Type %q", path, body, ct)
	}
	if rec.Code/100 == 2 {
		if !json.Valid(reply) {
			t.Fatalf("%s %q: %d with invalid JSON %q", path, body, rec.Code, reply)
		}
		return
	}
	var e APIError
	dec := json.NewDecoder(bytes.NewReader(reply))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		t.Fatalf("%s %q: %d body is no APIError (%v): %s", path, body, rec.Code, err, reply)
	}
	if _, known := codeStatus[e.Code]; !known || e.Code == "internal" || rec.Code != StatusForCode(e.Code) {
		t.Fatalf("%s %q: answered %d with code %q: %s", path, body, rec.Code, e.Code, reply)
	}
}

// TestColdCorpusAnswers200PerRoute requires the committed FuzzColdBodies
// corpus to hold, for every route it covers, an entry the route answers
// 200 — the simulate entry run for real — so the target starts from
// bodies that reach past decoding.
func TestColdCorpusAnswers200PerRoute(t *testing.T) {
	srv := newTestServer(t, Config{Shards: 1})
	ok := map[string]bool{}
	for name, data := range fuzzCorpus(t, "FuzzColdBodies") {
		path, body, _ := strings.Cut(data, " ")
		ts := httptest.NewServer(srv.HandlerWithCluster(newTestCluster(t, ClusterConfig{Nodes: 2})))
		status, reply, _ := postJSON(t, ts.URL+path, body)
		ts.Close()
		if status == http.StatusOK {
			ok[path] = true
		} else if status >= 500 {
			t.Fatalf("%s: %s answered %d %s", name, path, status, reply)
		}
	}
	for _, path := range coldRoutes {
		if !ok[path] {
			t.Errorf("no FuzzColdBodies corpus entry answers 200 on %s", path)
		}
	}
}
