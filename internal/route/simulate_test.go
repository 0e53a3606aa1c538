package route

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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

// simCountingGroup counts the what-if runs its group answers.
type simCountingGroup struct {
	Group
	runs atomic.Int64
}

func (g *simCountingGroup) Simulate(ctx context.Context, req serve.SimulateRequest) (*whatif.Report, error) {
	g.runs.Add(1)
	return g.Group.Simulate(ctx, req)
}

// TestRouterSimulateAnswersFromRendezvousOwner: over three groups, each
// seed's run goes to the group rendezvous(name#seed) picks, the answer
// names that group in the attribution header, and the seeds spread over
// more than one group.
func TestRouterSimulateAnswersFromRendezvousOwner(t *testing.T) {
	groups := make([]*simCountingGroup, 3)
	gs := make([]Group, len(groups))
	for g := range groups {
		groups[g] = &simCountingGroup{Group: NewLocalGroupWithServer(newTestCluster(t, 1), newSimServer(t))}
		gs[g] = groups[g]
	}
	r, err := New(gs, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(r.Handler(newSimServer(t).Handler()))
	t.Cleanup(ts.Close)

	answered := map[int]bool{}
	for seed := 1; seed <= 8; seed++ {
		owner := rendezvous(fmt.Sprintf("routed#%d", seed), r.names)
		before := groups[owner].runs.Load()
		body := strings.Replace(routeSimBody, `"seed":11`, fmt.Sprintf(`"seed":%d`, seed), 1)
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: simulate answered %d", seed, resp.StatusCode)
		}
		if got := resp.Header.Get(serve.ShardGroupHeader); got != strconv.Itoa(owner) {
			t.Fatalf("seed %d: %s = %q, want %d", seed, serve.ShardGroupHeader, got, owner)
		}
		if n := groups[owner].runs.Load(); n != before+1 {
			t.Fatalf("seed %d: owner group %d ran %d simulations, want %d", seed, owner, n, before+1)
		}
		answered[owner] = true
	}
	total := int64(0)
	for _, g := range groups {
		total += g.runs.Load()
	}
	if total != 8 || len(answered) < 2 {
		t.Fatalf("%d runs over groups %v, want 8 runs over at least two groups", total, answered)
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
