package route

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hrtsched/internal/client"
	"hrtsched/internal/serve"
	"hrtsched/internal/whatif"
)

const routeSimBody = `{"scenario":{"name":"routed","cpus":2,"tasks":[` +
	`{"period_ns":1000000,"slice_ns":400000,"cpu":0},` +
	`{"period_ns":1000000,"slice_ns":300000,"cpu":1}],` +
	`"model":"half-random","faults":["smi-storm"],"replications":3},"seed":11}`

func newSimServer(t *testing.T) *serve.Server {
	t.Helper()
	srv, err := serve.New(serve.Config{Spec: testSpec})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// TestSingleGroupRoutedSimulateIsByteIdentical: a simulate request through
// a one-group router answers byte-for-byte what the unrouted server
// answers, plus the shard attribution header.
func TestSingleGroupRoutedSimulateIsByteIdentical(t *testing.T) {
	newStack := func(routed bool) *httptest.Server {
		c := newTestCluster(t, 1)
		srv := newSimServer(t)
		if !routed {
			ts := httptest.NewServer(srv.HandlerWithCluster(c))
			t.Cleanup(ts.Close)
			return ts
		}
		r, err := New([]Group{NewLocalGroupWithServer(c, srv)}, Config{})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		ts := httptest.NewServer(r.Handler(srv.Handler()))
		t.Cleanup(ts.Close)
		return ts
	}
	unrouted := newStack(false)
	routed := newStack(true)

	if code, _ := driveIdentical(t, unrouted, routed, http.MethodPost, "/v1/simulate", routeSimBody); code != http.StatusOK {
		t.Fatalf("simulate answered %d", code)
	}
	// Invalid scenarios answer the identical 400 envelope.
	bad := `{"scenario":{"tasks":[{"period_ns":1000,"slice_ns":2000}]},"seed":1}`
	if code, _ := driveIdentical(t, unrouted, routed, http.MethodPost, "/v1/simulate", bad); code != http.StatusBadRequest {
		t.Fatalf("invalid scenario answered %d, want 400", code)
	}

	// The routed response carries the shard attribution header.
	resp, err := http.Post(routed.URL+"/v1/simulate", "application/json", strings.NewReader(routeSimBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(serve.ShardGroupHeader); got != "0" {
		t.Fatalf("%s = %q, want 0", serve.ShardGroupHeader, got)
	}
}

// TestRouterSimulateFallsThroughCapabilityGap: a group without the
// Simulator capability is skipped; the run lands on the capable group.
func TestRouterSimulateFallsThroughCapabilityGap(t *testing.T) {
	c0 := newTestCluster(t, 1)
	c1 := newTestCluster(t, 1)
	srv := newSimServer(t)
	// Group 0 is simulation-blind (plain LocalGroup), group 1 is capable.
	r, err := New([]Group{NewLocalGroup(c0), NewLocalGroupWithServer(c1, srv)}, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var req serve.SimulateRequest
	if err := json.Unmarshal([]byte(routeSimBody), &req); err != nil {
		t.Fatal(err)
	}
	req.Scenario = req.Scenario.Normalize()
	rep, g, err := r.Simulate(context.Background(), req)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if g != 1 {
		t.Fatalf("answered by group %d, want 1 (the only capable group)", g)
	}
	if rep.Replications != 3 || rep.Seed != 11 {
		t.Fatalf("report fields wrong: %+v", rep)
	}

	// No capable group at all: unreachable, mapped to the 503 contract.
	r2, err := New([]Group{NewLocalGroup(c0)}, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, _, err := r2.Simulate(context.Background(), req); !errors.Is(err, client.ErrUnreachable) {
		t.Fatalf("no-capability error = %v, want client.ErrUnreachable", err)
	}
}

// TestRemoteGroupSimulateForwards: a RemoteGroup forwards /v1/simulate to
// the group daemon and the decoded report re-encodes byte-identically to
// the daemon's own response (the histogram JSON round-trip contract).
func TestRemoteGroupSimulateForwards(t *testing.T) {
	srv := newSimServer(t)
	backend := httptest.NewServer(srv.HandlerWithCluster(newTestCluster(t, 1)))
	defer backend.Close()

	g, err := NewRemoteGroup(context.Background(), backend.URL, 30*time.Second)
	if err != nil {
		t.Fatalf("NewRemoteGroup: %v", err)
	}
	var req serve.SimulateRequest
	if err := json.Unmarshal([]byte(routeSimBody), &req); err != nil {
		t.Fatal(err)
	}
	req.Scenario = req.Scenario.Normalize()
	rep, err := g.Simulate(context.Background(), req)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	direct, err := whatif.Run(req.Scenario, req.Seed)
	if err != nil {
		t.Fatalf("whatif.Run: %v", err)
	}
	got, _ := json.Marshal(rep)
	want, _ := json.Marshal(direct)
	if string(got) != string(want) {
		t.Fatalf("remote report diverges from direct run:\n%s\n--- vs ---\n%s", got, want)
	}
}
