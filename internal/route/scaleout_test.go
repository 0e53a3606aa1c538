package route

import (
	"context"
	"fmt"
	"testing"

	"hrtsched/internal/plan"
	"hrtsched/internal/serve"
)

// raceEnabled is set by race_enabled_test.go under -race, where the
// throughput gate is meaningless.
var raceEnabled bool

// The scale-out workload: one 8-node fleet, prefilled with prefillSets
// live placements, then hammered with place-batch/remove rounds of
// opBatchSize fresh sets each. The fleets place first-fit, so each
// group's first node holds the group's whole committed set. Admission
// cost scales with that set's size m (the digest's suffix rehash and the
// removal's utilization refold and compaction are O(m) per delta), so
// sharding the same 8 nodes into 4 groups cuts each admission's m by
// roughly 4x. That is an algorithmic speedup, not parallelism: it holds on
// a single CPU.
const (
	scaleoutNodes = 8
	prefillSets   = 3072
	opBatchSize   = 64
)

// tinySet is the i-th prefill/op set: 100 ms period, sub-0.005% inflated
// utilization, so thousands fit on one node and admission outcome never
// depends on topology.
func tinySet(i int) plan.TaskSet {
	return plan.TaskSet{{PeriodNs: 100_000_000, SliceNs: 100 + int64(i%7)}}
}

// newScaleoutRouter builds a routed fleet of `groups` groups splitting
// scaleoutNodes nodes evenly, prefilled with prefillSets placements.
func newScaleoutRouter(tb testing.TB, groups int) *Router {
	tb.Helper()
	gs := make([]Group, groups)
	for g := range gs {
		c, err := serve.NewCluster(serve.ClusterConfig{
			Spec:  plan.Spec{OverheadNs: 4_600, UtilizationLimit: 0.79},
			Nodes: scaleoutNodes / groups,
		})
		if err != nil {
			tb.Fatalf("NewCluster: %v", err)
		}
		tb.Cleanup(c.Close)
		gs[g] = NewLocalGroup(c)
	}
	r, err := New(gs, Config{})
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	items := make([]serve.BatchPlaceItem, prefillSets)
	for i := range items {
		items[i] = serve.BatchPlaceItem{ID: fmt.Sprintf("fill-%d", i), Tasks: tinySet(i)}
	}
	br := r.PlaceBatch(context.Background(), items)
	for i, res := range br.Results {
		if res.Err != nil || !res.Result.Placed {
			tb.Fatalf("prefill %d: placed=%v err=%v", i, res.Result.Placed, res.Err)
		}
	}
	return r
}

// scaleoutRound is one measured unit: place a batch of opBatchSize fresh
// sets through the router, then remove them all, returning the fleet to
// the prefilled state.
func scaleoutRound(tb testing.TB, r *Router, round int) {
	tb.Helper()
	ctx := context.Background()
	items := make([]serve.BatchPlaceItem, opBatchSize)
	for i := range items {
		items[i] = serve.BatchPlaceItem{ID: fmt.Sprintf("op-%d-%d", round, i), Tasks: tinySet(i)}
	}
	br := r.PlaceBatch(ctx, items)
	for i, res := range br.Results {
		if res.Err != nil || !res.Result.Placed {
			tb.Fatalf("round %d item %d: placed=%v err=%v", round, i, res.Result.Placed, res.Err)
		}
	}
	for i := range items {
		if _, _, err := r.Remove(ctx, items[i].ID); err != nil {
			tb.Fatalf("round %d remove %d: %v", round, i, err)
		}
	}
}

func benchmarkRoutedPlace(b *testing.B, groups int) {
	r := newScaleoutRouter(b, groups)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scaleoutRound(b, r, i)
	}
}

// BenchmarkRoutedPlaceOneGroup is the monolith baseline: 1x8 nodes behind
// the router (single-group fast path, no splitting).
func BenchmarkRoutedPlaceOneGroup(b *testing.B) { benchmarkRoutedPlace(b, 1) }

// BenchmarkRoutedPlaceFourGroups shards the same 8 nodes 4x2.
func BenchmarkRoutedPlaceFourGroups(b *testing.B) { benchmarkRoutedPlace(b, 4) }

// TestRoutedPlaceShrinksLargestCommittedSet is the deterministic tier-1
// proxy for the wall-clock gate TestRoutedPlaceScaleoutAtLeast1_8x (build
// tag perfgate, run by `make perf-gate`): after the same rounds, the
// largest per-node committed set of the 4-group fleet — the m every
// admission on that node pays O(m) for — is at most a third of the
// 1-group fleet's. Ownership is rendezvous hashing, so the split is
// deterministic.
func TestRoutedPlaceShrinksLargestCommittedSet(t *testing.T) {
	if plan.VerifyEnabled {
		// planverify re-analyzes a 3072-set node from scratch on every
		// admission: minutes of work for a claim about set sizes alone.
		t.Skip("skipped under planverify")
	}
	largest := func(groups int) int64 {
		r := newScaleoutRouter(t, groups)
		for i := 0; i < 2; i++ {
			scaleoutRound(t, r, i)
		}
		var m int64
		for _, n := range r.Status(context.Background()).Nodes {
			m = max(m, n.Tasks)
		}
		return m
	}
	one, four := largest(1), largest(4)
	if one != prefillSets || 3*four > one {
		t.Fatalf("largest committed set: %d on one group, %d on four; want %d and at most a third",
			one, four, prefillSets)
	}
}
