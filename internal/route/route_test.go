package route

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"hrtsched/internal/client"
	"hrtsched/internal/dag"
	"hrtsched/internal/plan"
	"hrtsched/internal/serve"
)

var testSpec = plan.Spec{OverheadNs: 4_600, UtilizationLimit: 0.79}

// newTestCluster builds one shard-group cluster with the shared test spec.
func newTestCluster(t *testing.T, nodes int) *serve.Cluster {
	t.Helper()
	c, err := serve.NewCluster(serve.ClusterConfig{Spec: testSpec, Nodes: nodes})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// newLocalRouter builds a router over len(sizes) in-process groups, group g
// owning sizes[g] nodes, contiguous default partition.
func newLocalRouter(t *testing.T, sizes ...int) (*Router, []*serve.Cluster) {
	t.Helper()
	groups := make([]Group, len(sizes))
	clusters := make([]*serve.Cluster, len(sizes))
	for g, n := range sizes {
		clusters[g] = newTestCluster(t, n)
		groups[g] = NewLocalGroup(clusters[g])
	}
	r, err := New(groups, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r, clusters
}

// setOfUtil is a one-task set with roughly the given raw utilization. The
// 1 ms period keeps the per-task overhead inflation (4.6 us) small against
// the slice, so test capacities stay close to the nominal fractions.
func setOfUtil(frac float64) plan.TaskSet {
	return plan.TaskSet{{PeriodNs: 1_000_000, SliceNs: int64(frac * 1_000_000)}}
}

func TestPartitionNodesCoversAllNodesOnce(t *testing.T) {
	for _, tc := range []struct{ total, groups int }{
		{8, 4}, {8, 1}, {16, 4}, {5, 4}, {4, 4}, {100, 7}, {3, 8},
	} {
		part := PartitionNodes(tc.total, tc.groups)
		if len(part) != tc.groups {
			t.Fatalf("PartitionNodes(%d,%d): %d groups", tc.total, tc.groups, len(part))
		}
		seen := make(map[int]bool)
		for g, ids := range part {
			if tc.total >= tc.groups && len(ids) == 0 {
				t.Errorf("PartitionNodes(%d,%d): group %d empty: %v", tc.total, tc.groups, g, part)
			}
			for _, id := range ids {
				if id < 0 || id >= tc.total || seen[id] {
					t.Fatalf("PartitionNodes(%d,%d): bad/duplicate node %d: %v", tc.total, tc.groups, id, part)
				}
				seen[id] = true
			}
		}
		if len(seen) != tc.total {
			t.Fatalf("PartitionNodes(%d,%d) covered %d nodes: %v", tc.total, tc.groups, len(seen), part)
		}
	}
}

func TestPartitionNodesDeterministic(t *testing.T) {
	a := PartitionNodes(64, 4)
	b := PartitionNodes(64, 4)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("PartitionNodes not deterministic:\n%v\n%v", a, b)
	}
}

func TestGroupForIsStableAndSpreads(t *testing.T) {
	r, _ := newLocalRouter(t, 1, 1, 1, 1)
	counts := make([]int, 4)
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("placement-%d", i)
		g := r.GroupFor(id)
		if g2 := r.GroupFor(id); g2 != g {
			t.Fatalf("GroupFor(%q) unstable: %d then %d", id, g, g2)
		}
		counts[g]++
	}
	for g, n := range counts {
		if n < 100 {
			t.Fatalf("rendezvous hash starves group %d: %v", g, counts)
		}
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	c := newTestCluster(t, 2)
	g := NewLocalGroup(c)
	cases := []struct {
		groups []Group
		cfg    Config
	}{
		{nil, Config{}},
		{[]Group{g}, Config{Names: []string{"a", "b"}}},
		{[]Group{g, g}, Config{Names: []string{"dup", "dup"}}},
		{[]Group{g}, Config{Names: []string{""}}},
		{[]Group{g}, Config{Partition: [][]int{{0}}}},               // group owns 2 nodes
		{[]Group{g, g}, Config{Partition: [][]int{{0, 1}, {1, 2}}}}, // node 1 twice
		{[]Group{g}, Config{Partition: [][]int{{0, 1}, {2}}}},       // extra partition group
	}
	for i, tc := range cases {
		if _, err := New(tc.groups, tc.cfg); err == nil {
			t.Errorf("case %d: bad router config accepted", i)
		}
	}
}

func TestRoutedPlaceRemoveRoundTrip(t *testing.T) {
	r, _ := newLocalRouter(t, 2, 2)
	ctx := context.Background()
	placed := make(map[string]int)
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("rt-%d", i)
		res, g, err := r.Place(ctx, id, setOfUtil(0.05))
		if err != nil || !res.Placed {
			t.Fatalf("Place(%s): placed=%v err=%v", id, res.Placed, err)
		}
		if want := r.GroupFor(id); g != want {
			t.Fatalf("Place(%s) answered by group %d, hash owns %d", id, g, want)
		}
		placed[id] = g
	}
	for id, g := range placed {
		_, rg, err := r.Remove(ctx, id)
		if err != nil {
			t.Fatalf("Remove(%s): %v", id, err)
		}
		if rg != g {
			t.Fatalf("Remove(%s) answered by group %d, placed on %d", id, rg, g)
		}
	}
	if _, _, err := r.Remove(ctx, "never-placed"); !errors.Is(err, serve.ErrUnknownID) {
		t.Fatalf("Remove(unknown) = %v, want ErrUnknownID", err)
	}
}

func TestPlaceBatchSplitsAndMergesInInputOrder(t *testing.T) {
	r, clusters := newLocalRouter(t, 1, 1, 1, 1)
	ctx := context.Background()
	const n = 64
	items := make([]serve.BatchPlaceItem, n)
	for i := range items {
		items[i] = serve.BatchPlaceItem{ID: fmt.Sprintf("b-%d", i), Tasks: setOfUtil(0.01)}
	}
	br := r.PlaceBatch(ctx, items)
	if len(br.Results) != n || len(br.Groups) != n {
		t.Fatalf("batch result sized %d/%d, want %d", len(br.Results), len(br.Groups), n)
	}
	for i, res := range br.Results {
		if res.ID != items[i].ID {
			t.Fatalf("result %d is %q, want %q (merge order broken)", i, res.ID, items[i].ID)
		}
		if res.Err != nil || !res.Result.Placed {
			t.Fatalf("item %d: placed=%v err=%v", i, res.Result.Placed, res.Err)
		}
		if want := r.GroupFor(res.ID); br.Groups[i] != want {
			t.Fatalf("item %d attributed to group %d, hash owns %d", i, br.Groups[i], want)
		}
	}
	// Union of per-group placements covers exactly the batch.
	total := 0
	for _, c := range clusters {
		total += c.Status().Placements
	}
	if total != n {
		t.Fatalf("groups hold %d placements, want %d", total, n)
	}
	// Duplicate ids in one batch resolve in input order even when the
	// duplicates hash to the same group and land in one sub-batch.
	dup := []serve.BatchPlaceItem{
		{ID: "dup-x", Tasks: setOfUtil(0.01)},
		{ID: "dup-x", Tasks: setOfUtil(0.01)},
	}
	dr := r.PlaceBatch(ctx, dup)
	if dr.Results[0].Err != nil || !dr.Results[0].Result.Placed {
		t.Fatalf("first duplicate should place: %+v", dr.Results[0])
	}
	if !errors.Is(dr.Results[1].Err, serve.ErrDuplicateID) {
		t.Fatalf("second duplicate = %v, want ErrDuplicateID", dr.Results[1].Err)
	}
}

func TestCrossShardDrainMigratesStranded(t *testing.T) {
	r, clusters := newLocalRouter(t, 1, 1)
	ctx := context.Background()

	// Fill group 0's only node with sets that group 1 can still hold.
	var onZero []string
	for i := 0; len(onZero) < 3 && i < 200; i++ {
		id := fmt.Sprintf("mig-%d", i)
		if r.GroupFor(id) != 0 {
			continue
		}
		res, _, err := r.Place(ctx, id, setOfUtil(0.10))
		if err != nil || !res.Placed {
			t.Fatalf("Place(%s): placed=%v err=%v", id, res.Placed, err)
		}
		onZero = append(onZero, id)
	}
	if len(onZero) < 3 {
		t.Fatalf("could not find 3 ids hashing to group 0")
	}

	// Draining group 0's single node leaves nowhere in-group; every set
	// must migrate to group 1.
	rep, err := r.Drain(ctx, 0)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if rep.Migrated != len(onZero) || rep.Stranded != 0 {
		t.Fatalf("drain report %+v, want %d migrated, 0 stranded", rep, len(onZero))
	}
	if got := clusters[1].Status().Placements; got != len(onZero) {
		t.Fatalf("group 1 holds %d placements after migration, want %d", got, len(onZero))
	}
	if got := clusters[0].Status().Placements; got != 0 {
		t.Fatalf("group 0 still holds %d placements after migration", got)
	}

	// Remove still finds the migrated ids even though they now live off
	// their hash-owning group.
	for _, id := range onZero {
		_, g, err := r.Remove(ctx, id)
		if err != nil {
			t.Fatalf("Remove(%s) after migration: %v", id, err)
		}
		if g != 1 {
			t.Fatalf("Remove(%s) answered by group %d, migrated to 1", id, g)
		}
	}

	if _, err := r.Undrain(ctx, 0); err != nil {
		t.Fatalf("Undrain: %v", err)
	}
	if _, err := r.Drain(ctx, 99); !errors.Is(err, serve.ErrUnknownNode) {
		t.Fatalf("Drain(unknown node) = %v, want ErrUnknownNode", err)
	}
}

func TestCrossShardRebalanceNarrowsSpread(t *testing.T) {
	r, clusters := newLocalRouter(t, 1, 1)
	ctx := context.Background()

	// Pile placements onto group 0 directly (behind the router's back, as
	// if the hash had been unlucky), leaving group 1 empty.
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("skew-%d", i)
		res, err := clusters[0].Place(ctx, id, setOfUtil(0.08))
		if err != nil || !res.Placed {
			t.Fatalf("seed Place(%s): placed=%v err=%v", id, res.Placed, err)
		}
	}
	rep, err := r.Rebalance(ctx)
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if rep.Migrated == 0 {
		t.Fatalf("cross-shard rebalance moved nothing: %+v", rep)
	}
	if got := clusters[1].Status().Placements; got == 0 {
		t.Fatalf("group 1 still empty after rebalance: %+v", rep)
	}
	u0 := meanNodeUtil(clusters[0])
	u1 := meanNodeUtil(clusters[1])
	if gap := u0 - u1; gap < -0.25 || gap > 0.25 {
		t.Fatalf("rebalance left a wide spread: group0=%.2f group1=%.2f", u0, u1)
	}
}

// TestMigratedIDIsNotPlacedTwice re-places every id after a cross-shard
// drain and after a cross-shard rebalance. A migrated id lives off its
// hash-owning group, yet the router must answer ErrDuplicateID for it on
// every placement route, as a monolith does; the removal that follows
// must leave no copy live.
func TestMigratedIDIsNotPlacedTwice(t *testing.T) {
	ctx := context.Background()
	replaceAndRemove := func(t *testing.T, r *Router, clusters []*serve.Cluster, ids []string) {
		t.Helper()
		for _, id := range ids {
			if res, _, err := r.Place(ctx, id, setOfUtil(0.01)); !errors.Is(err, serve.ErrDuplicateID) || res.Placed {
				t.Fatalf("re-Place(%s): placed=%v err=%v, want ErrDuplicateID", id, res.Placed, err)
			}
			br := r.PlaceBatch(ctx, []serve.BatchPlaceItem{{ID: id, Tasks: setOfUtil(0.01)}})
			if res := br.Results[0]; !errors.Is(res.Err, serve.ErrDuplicateID) || res.Result.Placed || res.ID != id {
				t.Fatalf("re-PlaceBatch(%s): %+v, want ErrDuplicateID", id, res)
			}
			if res, _, err := r.PlaceDAG(ctx, id, diamondTask(), "classical"); !errors.Is(err, serve.ErrDuplicateID) || res.Placed {
				t.Fatalf("re-PlaceDAG(%s): placed=%v err=%v, want ErrDuplicateID", id, res.Placed, err)
			}
		}
		for _, id := range ids {
			if _, _, err := r.Remove(ctx, id); err != nil {
				t.Fatalf("Remove(%s): %v", id, err)
			}
			if _, _, err := r.Remove(ctx, id); !errors.Is(err, serve.ErrUnknownID) {
				t.Fatalf("second Remove(%s) = %v, want ErrUnknownID", id, err)
			}
		}
		for g, c := range clusters {
			if n := c.Status().Placements; n != 0 {
				t.Fatalf("group %d holds %d placements after removing every id", g, n)
			}
		}
	}
	placeOnZero := func(t *testing.T, r *Router, prefix string, n int, util float64) []string {
		t.Helper()
		var ids []string
		for i := 0; len(ids) < n && i < 1000; i++ {
			id := fmt.Sprintf("%s-%d", prefix, i)
			if r.GroupFor(id) != 0 {
				continue
			}
			if res, _, err := r.Place(ctx, id, setOfUtil(util)); err != nil || !res.Placed {
				t.Fatalf("Place(%s): placed=%v err=%v", id, res.Placed, err)
			}
			ids = append(ids, id)
		}
		if len(ids) < n {
			t.Fatalf("found %d ids hashing to group 0, want %d", len(ids), n)
		}
		return ids
	}

	t.Run("drain", func(t *testing.T) {
		r, clusters := newLocalRouter(t, 1, 1)
		ids := placeOnZero(t, r, "drained", 2, 0.10)
		rep, err := r.Drain(ctx, 0)
		if err != nil || rep.Migrated != len(ids) {
			t.Fatalf("Drain: %+v, %v; want %d migrated", rep, err, len(ids))
		}
		if _, err := r.Undrain(ctx, 0); err != nil {
			t.Fatalf("Undrain: %v", err)
		}
		replaceAndRemove(t, r, clusters, ids)
	})
	t.Run("rebalance", func(t *testing.T) {
		r, clusters := newLocalRouter(t, 1, 1)
		ids := placeOnZero(t, r, "skewed", 6, 0.08)
		rep, err := r.Rebalance(ctx)
		if err != nil || rep.Migrated == 0 {
			t.Fatalf("Rebalance: %+v, %v; want a cross-shard move", rep, err)
		}
		replaceAndRemove(t, r, clusters, ids)
	})
}

// diamondTask is a small DAG the classical analysis admits on a 2-core
// reservation.
func diamondTask() dag.Task {
	return dag.Task{
		Nodes:    []dag.Node{{WCETNs: 10_000}, {WCETNs: 20_000}, {WCETNs: 30_000}, {WCETNs: 10_000}},
		Edges:    []dag.Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3}},
		Cores:    2,
		PeriodNs: 1_000_000,
	}
}

func meanNodeUtil(c *serve.Cluster) float64 {
	st := c.Status()
	sum := 0.0
	for _, n := range st.Nodes {
		sum += n.Utilization
	}
	return sum / float64(len(st.Nodes))
}

// failingGroup errors on everything, simulating an unreachable group.
type failingGroup struct {
	Group
}

func (f failingGroup) Status(context.Context) (serve.ClusterStatus, error) {
	return serve.ClusterStatus{}, fmt.Errorf("%w: injected", client.ErrUnreachable)
}

func TestStatusAggregatesAndServesStale(t *testing.T) {
	c0 := newTestCluster(t, 2)
	c1 := newTestCluster(t, 2)
	g1 := &flipGroup{Group: NewLocalGroup(c1)}
	r, err := New([]Group{NewLocalGroup(c0), g1}, Config{StatusTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if _, _, err := r.Place(ctx, fmt.Sprintf("st-%d", i), setOfUtil(0.02)); err != nil {
			t.Fatalf("Place: %v", err)
		}
	}
	st := r.Status(ctx)
	if st.Groups != 2 || st.Reachable != 2 {
		t.Fatalf("status groups=%d reachable=%d, want 2/2", st.Groups, st.Reachable)
	}
	if st.Placements != 8 {
		t.Fatalf("aggregate placements = %d, want 8", st.Placements)
	}
	if len(st.Nodes) != 4 {
		t.Fatalf("aggregate has %d node rows, want 4", len(st.Nodes))
	}
	for i, n := range st.Nodes {
		if n.Node != i {
			t.Fatalf("node rows not globally renumbered: row %d is node %d", i, n.Node)
		}
	}

	// Kill group 1's status: the aggregate degrades to staleness, serving
	// the cached snapshot with an age, and the totals hold steady.
	g1.fail = true
	st2 := r.Status(ctx)
	if st2.Reachable != 1 {
		t.Fatalf("reachable = %d with one group down, want 1", st2.Reachable)
	}
	pg := st2.PerGroup[1]
	if pg.Reachable || pg.Error == "" || pg.Status == nil {
		t.Fatalf("down group row should be stale-but-present: %+v", pg)
	}
	if st2.Placements != 8 {
		t.Fatalf("stale aggregate placements = %d, want 8", st2.Placements)
	}
}

// flipGroup fails Status on demand.
type flipGroup struct {
	Group
	fail bool
}

func (f *flipGroup) Status(ctx context.Context) (serve.ClusterStatus, error) {
	if f.fail {
		return serve.ClusterStatus{}, fmt.Errorf("%w: injected", client.ErrUnreachable)
	}
	return f.Group.Status(ctx)
}

// TestRemoteGroupErrorMapping: the probe learns the group's node count, a
// per-item envelope of a 2xx batch reply comes back as a client
// EnvelopeError with the status its code pairs with, and a dead group
// fails a single call and every item of a batch as unreachable. The client
// package tests the whole-reply mapping itself.
func TestRemoteGroupErrorMapping(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Path {
		case "/v1/cluster/status":
			json.NewEncoder(w).Encode(serve.ClusterStatus{ //nolint:errcheck
				Nodes: []serve.NodeStatus{{Node: 0}}, Policy: "first-fit"})
		case "/v1/cluster/place-batch":
			serve.WritePlaceBatchReply(w, []serve.PlaceBatchEntry{
				{ID: "a", Error: &serve.APIError{Code: "conflict", Reason: "duplicate"}},
				{ID: "b", Result: &serve.PlaceResult{Placed: true, Node: 0}},
			})
		}
	}))
	defer ts.Close()

	g, err := NewRemoteGroup(context.Background(), ts.URL, time.Second)
	if err != nil {
		t.Fatalf("NewRemoteGroup: %v", err)
	}
	if g.NodeCount() != 1 {
		t.Fatalf("probed node count %d, want 1", g.NodeCount())
	}
	var env *client.EnvelopeError
	res := g.PlaceBatch(context.Background(), []serve.BatchPlaceItem{{ID: "a"}, {ID: "b"}})
	if !errors.As(res[0].Err, &env) || env.Status != http.StatusConflict || !errors.Is(res[0].Err, serve.ErrDuplicateID) {
		t.Fatalf("per-item conflict = %v, want a 409 envelope", res[0].Err)
	}
	if res[1].Err != nil || !res[1].Result.Placed {
		t.Fatalf("per-item result = %+v", res[1])
	}

	// A dead server is unreachable, not a protocol error.
	ts.Close()
	_, err = g.Place(context.Background(), "x", setOfUtil(0.1))
	if !errors.Is(err, client.ErrUnreachable) {
		t.Fatalf("dead server error = %v, want client.ErrUnreachable", err)
	}
	res = g.PlaceBatch(context.Background(), []serve.BatchPlaceItem{{ID: "a"}, {ID: "b"}})
	for i, it := range res {
		if !errors.Is(it.Err, client.ErrUnreachable) {
			t.Fatalf("batch item %d against dead server = %v, want unreachable", i, it.Err)
		}
	}
}

// TestEnvelopeErrorIsMapsSentinels covers every v1 envelope code: the
// status serve pairs it with, which a rebuilt per-item envelope carries,
// and exactly the serve sentinels the envelope matches.
func TestEnvelopeErrorIsMapsSentinels(t *testing.T) {
	sentinels := []error{serve.ErrUnknownID, serve.ErrUnknownNode, serve.ErrDuplicateID,
		serve.ErrNoLeader, serve.ErrIndeterminate, serve.ErrClusterClosed}
	cases := []struct {
		code   string
		status int
		is     []error
	}{
		{"not_found", http.StatusNotFound, []error{serve.ErrUnknownID, serve.ErrUnknownNode}},
		{"conflict", http.StatusConflict, []error{serve.ErrDuplicateID}},
		{"no_leader", http.StatusServiceUnavailable, []error{serve.ErrNoLeader}},
		{"indeterminate", http.StatusServiceUnavailable, []error{serve.ErrIndeterminate}},
		{"unavailable", http.StatusServiceUnavailable, []error{serve.ErrClusterClosed}},
		{"overloaded", http.StatusTooManyRequests, nil},
		{"bad_request", http.StatusBadRequest, nil},
		{"invalid_scenario", http.StatusBadRequest, nil},
		{"canceled", 499, nil},
		{"not_leader", http.StatusTemporaryRedirect, nil},
		{"invalid_dag", http.StatusUnprocessableEntity, nil},
		{"method_not_allowed", http.StatusMethodNotAllowed, nil},
		{"internal", http.StatusInternalServerError, nil},
		{"no_such_code", http.StatusInternalServerError, nil},
	}
	for _, tc := range cases {
		e := client.ItemError(serve.APIError{Code: tc.code})
		if e.Status != tc.status {
			t.Errorf("ItemError(%s).Status = %d, want %d", tc.code, e.Status, tc.status)
		}
		for _, s := range sentinels {
			if got, want := errors.Is(e, s), slices.Contains(tc.is, s); got != want {
				t.Errorf("errors.Is(EnvelopeError(%s), %v) = %v, want %v", tc.code, s, got, want)
			}
		}
	}
}

// --- single-group byte-identity -------------------------------------------

// driveIdentical fires the same request at an unrouted and a routed
// handler and requires byte-identical status, body, Content-Type and
// Retry-After (the routed X-Hrtd-Shard-Group attribution is extra).
func driveIdentical(t *testing.T, unrouted, routed *httptest.Server, method, path, body string) (int, string) {
	t.Helper()
	do := func(base string) (int, string) {
		var resp *http.Response
		var err error
		if method == http.MethodGet {
			resp, err = http.Get(base + path)
		} else {
			resp, err = http.Post(base+path, "application/json", strings.NewReader(body))
		}
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, fmt.Sprintf("Content-Type: %q Retry-After: %q\n%s",
			resp.Header.Get("Content-Type"), resp.Header.Get("Retry-After"), b)
	}
	uCode, uReply := do(unrouted.URL)
	rCode, rReply := do(routed.URL)
	if uCode != rCode || uReply != rReply {
		t.Fatalf("%s %s diverges between unrouted and routed:\nunrouted: %d %s\nrouted:   %d %s",
			method, path, uCode, uReply, rCode, rReply)
	}
	return uCode, uReply[strings.IndexByte(uReply, '\n')+1:]
}

func TestSingleGroupRoutedIsByteIdentical(t *testing.T) {
	// Two identical clusters driven with identical request streams stay in
	// identical states, so every response must match byte for byte.
	newStack := func(routed bool) *httptest.Server {
		c := newTestCluster(t, 2)
		srv, err := serve.New(serve.Config{Spec: testSpec})
		if err != nil {
			t.Fatalf("serve.New: %v", err)
		}
		t.Cleanup(srv.Close)
		if !routed {
			ts := httptest.NewServer(srv.HandlerWithCluster(c))
			t.Cleanup(ts.Close)
			return ts
		}
		r, err := New([]Group{NewLocalGroup(c)}, Config{})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		ts := httptest.NewServer(r.Handler(srv.Handler()))
		t.Cleanup(ts.Close)
		return ts
	}
	unrouted := newStack(false)
	routed := newStack(true)

	// The serve package's pinned answers to bodies off the canonical
	// spelling, on the same fresh two-node cluster: routed and unrouted
	// answer them identically, and as pinned.
	raw, err := os.ReadFile("../serve/testdata/noncanonical.json")
	if err != nil {
		t.Fatal(err)
	}
	var pinned []struct {
		Method, Path, Body, Want string
		Status                   int
	}
	if err := json.Unmarshal(raw, &pinned); err != nil || len(pinned) == 0 {
		t.Fatalf("pinned non-canonical cases: %d (%v)", len(pinned), err)
	}
	for i, tc := range pinned {
		if code, body := driveIdentical(t, unrouted, routed, tc.Method, tc.Path, tc.Body); code != tc.Status || body != tc.Want {
			t.Fatalf("case %d: %s %s %s:\n got %d %s\nwant %d %s", i, tc.Method, tc.Path, tc.Body, code, body, tc.Status, tc.Want)
		}
	}

	place := `{"id":"idn-a","tasks":[{"period_ns":100000,"slice_ns":10000}]}`
	if code, _ := driveIdentical(t, unrouted, routed, http.MethodPost, "/v1/cluster/place", place); code != http.StatusOK {
		t.Fatalf("place answered %d", code)
	}
	// Duplicate id: 409 envelope.
	if code, _ := driveIdentical(t, unrouted, routed, http.MethodPost, "/v1/cluster/place", place); code != http.StatusConflict {
		t.Fatalf("duplicate place answered %d, want 409", code)
	}
	// Batch, including a rejected item (utilization above the limit).
	batch := `{"items":[` +
		`{"id":"idn-b","tasks":[{"period_ns":100000,"slice_ns":5000}]},` +
		`{"id":"idn-c","tasks":[{"period_ns":100000,"slice_ns":99000}]},` +
		`{"id":"idn-b","tasks":[{"period_ns":100000,"slice_ns":5000}]}]}`
	if code, _ := driveIdentical(t, unrouted, routed, http.MethodPost, "/v1/cluster/place-batch", batch); code != http.StatusOK {
		t.Fatalf("batch answered %d", code)
	}
	// Over-cap batch: the 400 must quote the cap identically.
	var over strings.Builder
	over.WriteString(`{"items":[`)
	for i := 0; i <= serve.DefaultMaxBatchItems; i++ {
		if i > 0 {
			over.WriteByte(',')
		}
		fmt.Fprintf(&over, `{"id":"o-%d","tasks":[{"period_ns":100000,"slice_ns":100}]}`, i)
	}
	over.WriteString(`]}`)
	if code, body := driveIdentical(t, unrouted, routed, http.MethodPost, "/v1/cluster/place-batch", over.String()); code != http.StatusBadRequest ||
		!strings.Contains(body, strconv.Itoa(serve.DefaultMaxBatchItems)+"-item cap") {
		t.Fatalf("over-cap batch answered %d %s", code, body)
	}
	// Remove, then remove again: 200 then 404.
	driveIdentical(t, unrouted, routed, http.MethodPost, "/v1/cluster/remove", `{"id":"idn-a"}`)
	if code, _ := driveIdentical(t, unrouted, routed, http.MethodPost, "/v1/cluster/remove", `{"id":"idn-a"}`); code != http.StatusNotFound {
		t.Fatalf("second remove answered %d, want 404", code)
	}
	// Drain / undrain / rebalance / status bodies.
	driveIdentical(t, unrouted, routed, http.MethodPost, "/v1/cluster/drain", `{"node":0}`)
	driveIdentical(t, unrouted, routed, http.MethodPost, "/v1/cluster/undrain", `{"node":0}`)
	driveIdentical(t, unrouted, routed, http.MethodPost, "/v1/cluster/rebalance", `{}`)
	driveIdentical(t, unrouted, routed, http.MethodGet, "/v1/cluster/status", "")
	// DAG placement and analysis.
	dagBody := `{"id":"idn-dag","task":{"nodes":[{"wcet_ns":10000},{"wcet_ns":10000}],` +
		`"edges":[{"from":0,"to":1}],"period_ns":1000000,"cores":2}}`
	driveIdentical(t, unrouted, routed, http.MethodPost, "/v1/dag/place", dagBody)
	driveIdentical(t, unrouted, routed, http.MethodPost, "/v1/dag/analyze",
		`{"task":{"nodes":[{"wcet_ns":10000}],"edges":[],"period_ns":1000000,"cores":1}}`)
	// Non-cluster routes fall through to the query server identically.
	driveIdentical(t, unrouted, routed, http.MethodPost, "/v1/analyze",
		`{"tasks":[{"period_ns":1000000,"slice_ns":1000}]}`)
}

func TestRoutedHTTPMultiGroupEndToEnd(t *testing.T) {
	r, _ := newLocalRouter(t, 1, 1, 1, 1)
	srv, err := serve.New(serve.Config{Spec: testSpec})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	t.Cleanup(srv.Close)
	r.RegisterMetrics(srv.Registry())
	ts := httptest.NewServer(r.Handler(srv.Handler()))
	defer ts.Close()

	// A batch across all groups: every item placed, the shard header names
	// one group per item, and they match the hash map.
	c, ctx := client.New(ts.URL, 5*time.Second, 0), context.Background()
	const n = 16
	req := struct {
		Items []serve.BatchPlaceItem `json:"items"`
	}{make([]serve.BatchPlaceItem, n)}
	for i := range req.Items {
		req.Items[i] = serve.BatchPlaceItem{ID: fmt.Sprintf("e2e-%d", i), Tasks: setOfUtil(0.001)}
	}
	var reply client.Raw
	if err := c.Post(ctx, "/v1/cluster/place-batch", req, &reply); err != nil {
		t.Fatalf("place-batch: %v", err)
	}
	hdr := reply.Header.Get(serve.ShardGroupHeader)
	parts := strings.Split(hdr, ",")
	if len(parts) != n {
		t.Fatalf("shard header has %d entries, want %d: %q", len(parts), n, hdr)
	}
	for i, p := range parts {
		if want := strconv.Itoa(r.GroupFor(fmt.Sprintf("e2e-%d", i))); p != want {
			t.Fatalf("item %d attributed to group %s, hash owns %s", i, p, want)
		}
	}
	var env struct {
		Items []serve.PlaceBatchEntry `json:"items"`
	}
	if err := json.Unmarshal(reply.Body, &env); err != nil || len(env.Items) != n {
		t.Fatalf("batch envelope: %s (%v)", reply.Body, err)
	}
	for i, it := range env.Items {
		if it.ID != fmt.Sprintf("e2e-%d", i) || it.Result == nil || !it.Result.Placed {
			t.Fatalf("item %d wrong or unplaced: %+v", i, it)
		}
	}

	// Routed status aggregates all four groups.
	var st RoutedStatus
	if err := c.Get(ctx, "/v1/cluster/status", &st); err != nil {
		t.Fatalf("GET status: %v", err)
	}
	if st.Groups != 4 || st.Reachable != 4 || st.Placements != n {
		t.Fatalf("routed status groups=%d reachable=%d placements=%d, want 4/4/%d",
			st.Groups, st.Reachable, st.Placements, n)
	}

	// The route metrics surfaced on the shared registry.
	var metrics client.Raw
	if err := c.Get(ctx, "/metrics", &metrics); err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	for _, want := range []string{
		"hrtd_route_groups 4",
		`hrtd_route_requests_total{group="0"}`,
		"hrtd_route_fanout_width_count",
		`hrtd_route_http_duration_us_count{route="place-batch"}`,
	} {
		if !strings.Contains(string(metrics.Body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics.Body)
		}
	}
}
