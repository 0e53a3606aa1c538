package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"hrtsched/internal/durable"
	"hrtsched/internal/plan"
	"hrtsched/internal/sim"
)

func TestClusterPlaceBatchOrderingAndErrors(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Nodes: 2})
	ctx := context.Background()

	if _, err := c.Place(ctx, "existing", setOfUtil(0.10)); err != nil {
		t.Fatalf("seed place: %v", err)
	}

	res := c.PlaceBatch(ctx, []BatchPlaceItem{
		{ID: "a", Tasks: setOfUtil(0.10)},
		{ID: "", Tasks: setOfUtil(0.10)},
		{ID: "existing", Tasks: setOfUtil(0.10)},
		{ID: "dup", Tasks: setOfUtil(0.10)},
		{ID: "dup", Tasks: setOfUtil(0.10)},
		{ID: "fat", Tasks: setOfUtil(0.95)},
	})
	if len(res) != 6 {
		t.Fatalf("got %d results for 6 items", len(res))
	}
	for i, want := range []string{"a", "", "existing", "dup", "dup", "fat"} {
		if res[i].ID != want {
			t.Fatalf("result %d id = %q, want %q (results must keep input order)", i, res[i].ID, want)
		}
	}
	if res[0].Err != nil || !res[0].Result.Placed {
		t.Fatalf("item a: %+v, %v", res[0].Result, res[0].Err)
	}
	if !errors.Is(res[1].Err, durable.ErrBadPlacement) {
		t.Fatalf("empty id: err = %v", res[1].Err)
	}
	if !errors.Is(res[2].Err, ErrDuplicateID) {
		t.Fatalf("existing id: err = %v", res[2].Err)
	}
	// In-batch duplicate: the first occurrence proceeds, the later one is
	// rejected deterministically regardless of worker scheduling.
	if res[3].Err != nil || !res[3].Result.Placed {
		t.Fatalf("first dup occurrence: %+v, %v", res[3].Result, res[3].Err)
	}
	if !errors.Is(res[4].Err, ErrDuplicateID) {
		t.Fatalf("second dup occurrence: err = %v", res[4].Err)
	}
	// An infeasible set is a rejection, not an error.
	if res[5].Err != nil || res[5].Result.Placed {
		t.Fatalf("fat set: %+v, %v", res[5].Result, res[5].Err)
	}

	if st := c.Status(); st.Placed != 3 { // existing, a, dup
		t.Fatalf("placed = %d, want 3", st.Placed)
	}
}

// TestClusterPlaceBatchParallelVerdictsMatchOracle drives the parallel
// batch path through random mixed workloads — periodic gangs, DAG
// server-task reservations, removes, in-batch conflicts — and after every
// batch audits each node's committed verdict against the full uncached
// analysis of that node's task set. Under -tags planverify every TryGang
// and RemoveGang inside the batch additionally self-verifies, so this is
// the parallel-path half of the bit-identity property suite.
func TestClusterPlaceBatchParallelVerdictsMatchOracle(t *testing.T) {
	rng := sim.NewRand(0x6a31d)
	c := newTestCluster(t, ClusterConfig{Nodes: 3, Policy: WorstFit})
	ctx := context.Background()
	placed := map[string]bool{}
	next := 0

	rounds := 40
	if testing.Short() {
		rounds = 8
	}
	for round := 0; round < rounds; round++ {
		// Every few rounds a DAG reservation joins the mix: its derived
		// server task must be audited exactly like a client gang.
		if round%5 == 4 {
			id := fmt.Sprintf("dag-%d", round)
			if res, err := c.PlaceDAG(ctx, id, testDAG(), ""); err != nil {
				t.Fatalf("round %d: PlaceDAG: %v", round, err)
			} else if res.Placed {
				placed[id] = true
			}
		}

		n := 1 + int(rng.Uint64()%8)
		items := make([]BatchPlaceItem, n)
		for i := range items {
			util := 0.02 + float64(rng.Uint64()%11)/100 // 0.02 .. 0.12
			id := fmt.Sprintf("g%d", next)
			next++
			switch rng.Uint64() % 10 {
			case 0: // in-batch duplicate of the previous item
				if i > 0 {
					id = items[i-1].ID
				}
			case 1: // collide with an already-placed id
				for p := range placed {
					id = p
					break
				}
			}
			items[i] = BatchPlaceItem{ID: id, Tasks: setOfUtil(util)}
		}
		res := c.PlaceBatch(ctx, items)
		if len(res) != n {
			t.Fatalf("round %d: %d results for %d items", round, len(res), n)
		}
		for i, r := range res {
			if r.ID != items[i].ID {
				t.Fatalf("round %d: result %d id %q != item id %q", round, i, r.ID, items[i].ID)
			}
			switch {
			case errors.Is(r.Err, ErrDuplicateID):
				// expected for collisions
			case r.Err != nil:
				t.Fatalf("round %d: item %d (%s): %v", round, i, r.ID, r.Err)
			case r.Result.Placed:
				placed[r.ID] = true
			}
		}

		// Random removes keep the engines exercising the RemoveGang path.
		for id := range placed {
			if rng.Uint64()%4 == 0 {
				if _, err := c.Remove(ctx, id); err != nil {
					t.Fatalf("round %d: Remove(%s): %v", round, id, err)
				}
				delete(placed, id)
			}
		}

		// Per-node audit: the incremental verdict each worker committed
		// must be equivalent to the full uncached analysis of the node's
		// task set — the parallel path may not drift from the oracle.
		for _, nd := range c.nodes {
			got := nd.eng.Verdict()
			want := plan.Analyze(c.cfg.Spec, nd.eng.Tasks())
			if got != want {
				t.Fatalf("round %d: node %d diverges from oracle:\ninc  %+v\nfull %+v",
					round, nd.id, got, want)
			}
		}
	}
	if len(placed) == 0 {
		t.Fatal("workload never left anything placed; property vacuous")
	}
}

// BenchmarkClusterPlaceBatch measures the batched placement path: one op
// is one place+remove pair flowing through PlaceBatch in 64-item batches,
// matching BenchmarkClusterPlaceMemory's per-op accounting.
func BenchmarkClusterPlaceBatch(b *testing.B) {
	c, err := NewCluster(ClusterConfig{Spec: testSpec, Nodes: 4})
	if err != nil {
		b.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	ctx := context.Background()
	set := plan.TaskSet{{PeriodNs: 1_000_000, SliceNs: 2_000}}
	const batch = 64
	items := make([]BatchPlaceItem, batch)
	b.ResetTimer()
	for n := 0; n < b.N; n += batch {
		k := batch
		if rem := b.N - n; rem < k {
			k = rem
		}
		for j := 0; j < k; j++ {
			items[j] = BatchPlaceItem{ID: fmt.Sprintf("b%d-%d", n, j), Tasks: set}
		}
		for _, r := range c.PlaceBatch(ctx, items[:k]) {
			if r.Err != nil || !r.Result.Placed {
				b.Fatalf("PlaceBatch(%s): %+v, %v", r.ID, r.Result, r.Err)
			}
		}
		for j := 0; j < k; j++ {
			if _, err := c.Remove(ctx, items[j].ID); err != nil {
				b.Fatalf("Remove(%s): %v", items[j].ID, err)
			}
		}
	}
}
