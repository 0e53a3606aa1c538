package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"hrtsched/internal/core"
	"hrtsched/internal/plan"
)

func newTestCluster(t *testing.T, cfg ClusterConfig) *Cluster {
	t.Helper()
	if cfg.Spec == (plan.Spec{}) {
		cfg.Spec = testSpec
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// setOfUtil builds a harmonic task set whose raw utilization is roughly
// frac (e.g. 0.3 -> one 100us-period task with a 30us slice).
func setOfUtil(frac float64) plan.TaskSet {
	return plan.TaskSet{{PeriodNs: 100_000, SliceNs: int64(frac * 100_000)}}
}

func TestClusterConfigValidate(t *testing.T) {
	bad := []ClusterConfig{
		{Spec: testSpec, Nodes: -1},
		{Spec: plan.Spec{UtilizationLimit: 0}},
		{Spec: plan.Spec{UtilizationLimit: 1.5}},
		{Spec: plan.Spec{UtilizationLimit: math.NaN()}},
		{Spec: testSpec, Policy: Policy(9)},
		{Spec: testSpec, QueueDepth: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: bad config validated: %+v", i, cfg)
		}
	}
	if _, err := ParsePolicy("best-fit"); err == nil {
		t.Errorf("unknown policy parsed")
	}
	for _, s := range []string{"first-fit", "worst-fit"} {
		p, err := ParsePolicy(s)
		if err != nil || p.String() != s {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, p, err)
		}
	}
}

func TestClusterFirstFitPacksLowNodes(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Nodes: 3})
	ctx := context.Background()

	// Two 28%-utilization sets fit on node 0 under the 0.79 limit, with
	// their overhead charged, and a third would pass the bound, so
	// first-fit should fill node 0 before touching node 1.
	var nodes []int
	for _, id := range []string{"a", "b", "c", "d"} {
		res, err := c.Place(ctx, id, setOfUtil(0.28))
		if err != nil || !res.Placed {
			t.Fatalf("Place(%s): placed=%v err=%v verdict=%+v", id, res.Placed, err, res.Verdict)
		}
		nodes = append(nodes, res.Node)
	}
	if nodes[0] != 0 || nodes[1] != 0 {
		t.Fatalf("first-fit scattered early sets: %v", nodes)
	}
	for i := 1; i < len(nodes); i++ {
		if nodes[i] < nodes[i-1] {
			t.Fatalf("first-fit went backwards: %v", nodes)
		}
	}
	st := c.Status()
	if st.Placed != 4 || st.Placements != 4 {
		t.Fatalf("status after placements: %+v", st)
	}
}

func TestClusterWorstFitSpreads(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Nodes: 3, Policy: WorstFit})
	ctx := context.Background()
	seen := map[int]bool{}
	for _, id := range []string{"a", "b", "c"} {
		res, err := c.Place(ctx, id, setOfUtil(0.20))
		if err != nil || !res.Placed {
			t.Fatalf("Place(%s): %+v, %v", id, res, err)
		}
		seen[res.Node] = true
	}
	if len(seen) != 3 {
		t.Fatalf("worst-fit did not spread across all nodes: %v", seen)
	}
}

func TestClusterPlaceRejectsAndErrors(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Nodes: 2})
	ctx := context.Background()

	// A set over the utilization bound is rejected by every node: no
	// error, Placed=false, rejected counter bumps.
	res, err := c.Place(ctx, "fat", setOfUtil(0.95))
	if err != nil || res.Placed || res.Node != -1 || res.Attempts != 2 {
		t.Fatalf("over-bound set: %+v, %v", res, err)
	}
	if got := c.Status().Rejected; got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	// The id is free again after a rejection.
	if res, err = c.Place(ctx, "fat", setOfUtil(0.10)); err != nil || !res.Placed {
		t.Fatalf("reusing id after rejection: %+v, %v", res, err)
	}
	if _, err = c.Place(ctx, "fat", setOfUtil(0.10)); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate id error = %v", err)
	}
	if _, err = c.Place(ctx, "", setOfUtil(0.10)); err == nil {
		t.Fatalf("empty id accepted")
	}
	if _, err = c.Remove(ctx, "nope"); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("unknown id remove error = %v", err)
	}
}

func TestClusterRemoveFreesCapacity(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Nodes: 1})
	ctx := context.Background()
	if res, err := c.Place(ctx, "a", setOfUtil(0.60)); err != nil || !res.Placed {
		t.Fatalf("Place(a): %+v, %v", res, err)
	}
	if res, err := c.Place(ctx, "b", setOfUtil(0.60)); err != nil || res.Placed {
		t.Fatalf("second 60%% set should not fit: %+v, %v", res, err)
	}
	if _, err := c.Remove(ctx, "a"); err != nil {
		t.Fatalf("Remove(a): %v", err)
	}
	if res, err := c.Place(ctx, "b", setOfUtil(0.60)); err != nil || !res.Placed {
		t.Fatalf("Place(b) after eviction: %+v, %v", res, err)
	}
	st := c.Status()
	if st.Removed != 1 || st.Placements != 1 {
		t.Fatalf("status after remove/replace: %+v", st)
	}
}

func TestClusterDrainMovesSets(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Nodes: 2})
	ctx := context.Background()
	for _, id := range []string{"a", "b"} {
		if res, err := c.Place(ctx, id, setOfUtil(0.10)); err != nil || res.Node != 0 {
			t.Fatalf("Place(%s): %+v, %v", id, res, err)
		}
	}
	rep, err := c.Drain(ctx, 0)
	if err != nil || rep.Moved != 2 || rep.Stranded != 0 {
		t.Fatalf("Drain: %+v, %v", rep, err)
	}
	st := c.Status()
	if !st.Nodes[0].Draining || st.Nodes[0].Tasks != 0 || st.Nodes[1].Tasks != 2 {
		t.Fatalf("post-drain status: %+v", st)
	}
	// Draining node takes no new placements; undrain re-opens it.
	if res, err := c.Place(ctx, "c", setOfUtil(0.10)); err != nil || res.Node != 1 {
		t.Fatalf("placement during drain went to node %d (%v)", res.Node, err)
	}
	if err := c.Undrain(0); err != nil {
		t.Fatalf("Undrain: %v", err)
	}
	if res, err := c.Place(ctx, "d", setOfUtil(0.10)); err != nil || res.Node != 0 {
		t.Fatalf("placement after undrain went to node %d (%v)", res.Node, err)
	}
	if _, err := c.Drain(ctx, 9); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown node drain error = %v", err)
	}
}

func TestClusterDrainStrandsUnplaceable(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Nodes: 2})
	ctx := context.Background()
	// Fill node 1 so node 0's big set has nowhere to go.
	if res, err := c.Place(ctx, "big0", setOfUtil(0.60)); err != nil || res.Node != 0 {
		t.Fatalf("Place(big0): %+v, %v", res, err)
	}
	if res, err := c.Place(ctx, "big1", setOfUtil(0.60)); err != nil || res.Node != 1 {
		t.Fatalf("Place(big1): %+v, %v", res, err)
	}
	rep, err := c.Drain(ctx, 0)
	if err != nil || rep.Moved != 0 || rep.Stranded != 1 || len(rep.StrandedIDs) != 1 {
		t.Fatalf("Drain: %+v, %v", rep, err)
	}
	// The stranded set is still committed on the draining node.
	st := c.Status()
	if st.Nodes[0].Tasks != 1 || st.Placements != 2 {
		t.Fatalf("stranded set lost: %+v", st)
	}
}

func TestClusterRebalanceNarrowsSpread(t *testing.T) {
	// First-fit piles everything on node 0; rebalance should spread it.
	c := newTestCluster(t, ClusterConfig{Nodes: 2})
	ctx := context.Background()
	for _, id := range []string{"a", "b", "c"} {
		if res, err := c.Place(ctx, id, setOfUtil(0.10)); err != nil || res.Node != 0 {
			t.Fatalf("Place(%s): %+v, %v", id, res, err)
		}
	}
	moved, err := c.Rebalance(ctx)
	if err != nil || moved == 0 {
		t.Fatalf("Rebalance: moved=%d err=%v", moved, err)
	}
	st := c.Status()
	gap := st.Nodes[0].Utilization - st.Nodes[1].Utilization
	if gap < 0 {
		gap = -gap
	}
	if gap > 0.25 {
		t.Fatalf("rebalance left a %.2f utilization gap: %+v", gap, st)
	}
	if st.Rebalanced != int64(moved) {
		t.Fatalf("rebalanced counter %d != moved %d", st.Rebalanced, moved)
	}
	// A balanced cluster needs no further moves.
	if again, err := c.Rebalance(ctx); err != nil || again != 0 {
		t.Fatalf("second rebalance moved %d (%v)", again, err)
	}
}

func TestClusterShedsWhenQueueFull(t *testing.T) {
	// No workers: the queue fills and stays full. The retry-after quote
	// must be positive and grow with the mutations queued ahead of it.
	var quotes []int64
	for _, depth := range []int{1, 4} {
		c, err := newCluster(ClusterConfig{Spec: testSpec, Nodes: 1, QueueDepth: depth})
		if err != nil {
			t.Fatalf("newCluster: %v", err)
		}
		n := c.nodes[0]
		for i := 0; i < depth; i++ {
			n.ch <- &mutation{}
		}
		_, err = c.submit(context.Background(), n, &mutation{op: placeOp, set: setOfUtil(0.1)})
		var adm *core.AdmissionError
		if !errors.As(err, &adm) {
			t.Fatalf("full queue error = %v, want AdmissionError", err)
		}
		if adm.Reason != "cluster-overload" || adm.RetryAfterNs <= 0 {
			t.Fatalf("shed error = %+v", adm)
		}
		quotes = append(quotes, adm.RetryAfterNs)
		if n.shed.Load() != 1 {
			t.Fatalf("shed counter = %d", n.shed.Load())
		}
	}
	if quotes[1] <= quotes[0] {
		t.Fatalf("retry-after quotes %v do not grow with queue depth", quotes)
	}
}

func TestClusterCanceledContextDropsQueuedMutation(t *testing.T) {
	// No workers: cancel while queued, then apply the batch by hand.
	c, err := newCluster(ClusterConfig{Spec: testSpec, Nodes: 1})
	if err != nil {
		t.Fatalf("newCluster: %v", err)
	}
	n := c.nodes[0]
	ctx, cancel := context.WithCancel(context.Background())
	m := &mutation{ctx: ctx, op: placeOp, set: setOfUtil(0.1), done: make(chan mutResult, 1)}
	cancel()
	c.applyBatch(n, []*mutation{m})
	if r := <-m.done; !r.canceled {
		t.Fatalf("canceled mutation was applied: %+v", r)
	}
	if n.eng.Len() != 0 {
		t.Fatalf("canceled mutation mutated the engine")
	}
	if c.canceled.Load() != 1 || n.canceled.Load() != 1 {
		t.Fatalf("canceled counters = %d/%d", c.canceled.Load(), n.canceled.Load())
	}
	// End to end: Place with an already-canceled context reports ctx.Err.
	c2 := newTestCluster(t, ClusterConfig{Nodes: 1})
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := c2.Place(done, "x", setOfUtil(0.1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Place error = %v", err)
	}
	if _, err := c2.Place(context.Background(), "x", setOfUtil(0.1)); err != nil {
		t.Fatalf("id not released after canceled place: %v", err)
	}
}

func TestClusterClosedRejects(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Nodes: 1})
	c.Close()
	c.Close() // idempotent
	if _, err := c.Place(context.Background(), "a", setOfUtil(0.1)); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("closed cluster error = %v", err)
	}
}

func TestClusterMetricsRender(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Nodes: 2})
	reg := NewRegistry()
	c.RegisterMetrics(reg)
	ctx := context.Background()
	if res, err := c.Place(ctx, "a", setOfUtil(0.30)); err != nil || !res.Placed {
		t.Fatalf("Place: %+v, %v", res, err)
	}
	// Metrics sample worker-side atomics; give the applied batch a beat.
	deadline := time.Now().Add(2 * time.Second)
	var text string
	for {
		text = reg.Render()
		if strings.Contains(text, "hrtd_cluster_placed_total 1") || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, want := range []string{
		"hrtd_cluster_nodes 2",
		"hrtd_cluster_placed_total 1",
		`hrtd_cluster_node_utilization{node="0"}`,
		`hrtd_cluster_node_tasks{node="0"} 1`,
		`hrtd_cluster_incremental_ops_total{node="0"}`,
		`hrtd_cluster_full_analyses_total{node="0"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestClusterDrainWithCanceledContextLosesNothing(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Nodes: 2})
	ctx := context.Background()
	for _, id := range []string{"a", "b"} {
		if res, err := c.Place(ctx, id, setOfUtil(0.15)); err != nil || res.Node != 0 {
			t.Fatalf("Place(%s): %+v, %v", id, res, err)
		}
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.Drain(dead, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled drain error = %v", err)
	}
	// The aborted drain moved nothing and lost nothing: destinations are
	// admitted before home releases, so a cancellation mid-move leaves
	// both sets recorded and committed on node 0.
	st := c.Status()
	if st.Placements != 2 || st.Nodes[0].Tasks != 2 || st.Nodes[1].Tasks != 0 {
		t.Fatalf("canceled drain corrupted state: %+v", st)
	}
	if err := c.Undrain(0); err != nil {
		t.Fatalf("Undrain: %v", err)
	}
	if rep, err := c.Drain(ctx, 0); err != nil || rep.Moved != 2 {
		t.Fatalf("drain after canceled attempt: %+v, %v", rep, err)
	}
}

func TestClusterRemoveSurfacesDivergence(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Nodes: 1})
	ctx := context.Background()
	if res, err := c.Place(ctx, "a", setOfUtil(0.30)); err != nil || !res.Placed {
		t.Fatalf("Place: %+v, %v", res, err)
	}
	// Corrupt the record so it names tasks the engine never admitted,
	// simulating map/engine divergence.
	c.mu.Lock()
	c.placements["a"].set = setOfUtil(0.23)
	c.mu.Unlock()
	if _, err := c.Remove(ctx, "a"); !errors.Is(err, ErrLostPlacement) {
		t.Fatalf("divergent remove error = %v", err)
	}
	st := c.Status()
	if st.Removed != 0 || st.Unmatched != 1 || st.Placements != 0 {
		t.Fatalf("divergence accounting wrong: %+v", st)
	}
	// An unmatched removal must leave the engine's real demand untouched.
	if st.Nodes[0].Tasks != 1 {
		t.Fatalf("unmatched removal mutated the engine: %+v", st)
	}
}

func TestClusterDrainSeesRacingPlacements(t *testing.T) {
	// Places racing the drain flag must end up either moved off the node
	// or listed stranded — never silently parked on the draining node —
	// and every record must stay backed by its node's engine.
	for iter := 0; iter < 25; iter++ {
		c := newTestCluster(t, ClusterConfig{Nodes: 2})
		ctx := context.Background()
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c.Place(ctx, fmt.Sprintf("s%d", i), setOfUtil(0.05)) //nolint:errcheck
			}(i)
		}
		rep, err := c.Drain(ctx, 0)
		if err != nil {
			t.Fatalf("iter %d: Drain: %v", iter, err)
		}
		wg.Wait()
		stranded := map[string]bool{}
		for _, id := range rep.StrandedIDs {
			stranded[id] = true
		}
		c.mu.Lock()
		var unseen []string
		recorded := 0
		for id, rec := range c.placements {
			recorded += len(rec.set)
			if rec.node == 0 && !stranded[id] {
				unseen = append(unseen, id)
			}
		}
		c.mu.Unlock()
		if len(unseen) != 0 {
			t.Fatalf("iter %d: sets landed on draining node unseen: %v (report %+v)",
				iter, unseen, rep)
		}
		committed := 0
		for _, n := range c.nodes {
			committed += n.eng.Len()
		}
		if committed != recorded {
			t.Fatalf("iter %d: engines hold %d tasks, records say %d", iter, committed, recorded)
		}
		c.Close()
	}
}

func TestClusterEnginesStayConsistent(t *testing.T) {
	// Cross-check every node's committed verdict against the full
	// analysis after a busy mixed workload.
	c := newTestCluster(t, ClusterConfig{Nodes: 3, Policy: WorstFit})
	ctx := context.Background()
	ids := []string{"a", "b", "c", "d", "e", "f"}
	for i, id := range ids {
		if _, err := c.Place(ctx, id, setOfUtil(0.1+float64(i%3)*0.1)); err != nil {
			t.Fatalf("Place(%s): %v", id, err)
		}
	}
	for _, id := range []string{"b", "e"} {
		if _, err := c.Remove(ctx, id); err != nil {
			t.Fatalf("Remove(%s): %v", id, err)
		}
	}
	if _, err := c.Rebalance(ctx); err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	for _, n := range c.nodes {
		got := n.eng.Verdict()
		want := plan.Analyze(c.cfg.Spec, n.eng.Tasks())
		if got != want {
			t.Fatalf("node %d engine diverges:\ninc  %+v\nfull %+v", n.id, got, want)
		}
	}
}
