package route

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"

	"hrtsched/internal/plan"
	"hrtsched/internal/serve"
	"hrtsched/internal/sim"
)

// TestRoutedMatchesMonolithUnderRandomStream drives one randomized
// mutation stream through a routed 4x2 fleet and an unrouted 8-node
// monolith with the same spec and policy, and requires identical admission
// outcomes for every operation plus an identical union of live placements
// at the end.
//
// The stream keeps per-node demand far below the utilization limit, so
// admissibility never depends on which nodes a topology offers: admissible
// sets admit everywhere, deterministically-inadmissible sets (a single
// task above the limit) reject everywhere, and session errors (duplicate
// ids, unknown removals) are topology-independent by construction. The
// test runs in the -race and -tags planverify CI configurations unchanged
// — it is deliberately small enough to afford verification.
func TestRoutedMatchesMonolithUnderRandomStream(t *testing.T) {
	ctx := context.Background()
	mono := newTestCluster(t, 8)
	router, _ := newLocalRouter(t, 2, 2, 2, 2)
	rng := sim.NewRand(1117)

	admissible := func() plan.TaskSet {
		// 0.1%-1% inflated utilization at a 10 ms period: hundreds fit on
		// any single node, so no admissible set is ever refused.
		return plan.TaskSet{{PeriodNs: 10_000_000, SliceNs: 1_000 + rng.Int63n(90_000)}}
	}
	inadmissible := func() plan.TaskSet {
		// A single task above the utilization limit rejects on every node
		// of every topology.
		return plan.TaskSet{{PeriodNs: 1_000_000, SliceNs: 950_000}}
	}

	classify := func(err error) string {
		switch {
		case err == nil:
			return "ok"
		case errors.Is(err, serve.ErrDuplicateID):
			return "duplicate"
		case errors.Is(err, serve.ErrUnknownID):
			return "unknown"
		default:
			return fmt.Sprintf("other:%v", err)
		}
	}

	var live []string
	next := 0
	for op := 0; op < 400; op++ {
		switch roll := rng.Float64(); {
		case roll < 0.40: // place a fresh admissible set
			id := fmt.Sprintf("p-%d", next)
			next++
			set := admissible()
			mres, merr := mono.Place(ctx, id, set)
			rres, _, rerr := router.Place(ctx, id, set)
			if classify(merr) != classify(rerr) || mres.Placed != rres.Placed {
				t.Fatalf("op %d place(%s): mono placed=%v err=%v, routed placed=%v err=%v",
					op, id, mres.Placed, merr, rres.Placed, rerr)
			}
			if mres.Placed {
				live = append(live, id)
			}
		case roll < 0.50: // place an inadmissible set: rejected everywhere
			id := fmt.Sprintf("p-%d", next)
			next++
			set := inadmissible()
			mres, merr := mono.Place(ctx, id, set)
			rres, _, rerr := router.Place(ctx, id, set)
			if merr != nil || rerr != nil || mres.Placed || rres.Placed {
				t.Fatalf("op %d inadmissible place(%s): mono placed=%v err=%v, routed placed=%v err=%v",
					op, id, mres.Placed, merr, rres.Placed, rerr)
			}
		case roll < 0.60 && len(live) > 0: // duplicate id: conflict everywhere
			id := live[rng.Intn(len(live))]
			_, merr := mono.Place(ctx, id, admissible())
			_, _, rerr := router.Place(ctx, id, admissible())
			if classify(merr) != "duplicate" || classify(rerr) != "duplicate" {
				t.Fatalf("op %d duplicate place(%s): mono %v, routed %v", op, id, merr, rerr)
			}
		case roll < 0.75: // batch of fresh admissible sets
			n := 2 + rng.Intn(6)
			items := make([]serve.BatchPlaceItem, n)
			for i := range items {
				items[i] = serve.BatchPlaceItem{ID: fmt.Sprintf("p-%d", next), Tasks: admissible()}
				next++
			}
			mres := mono.PlaceBatch(ctx, items)
			rres := router.PlaceBatch(ctx, items)
			for i := range items {
				if classify(mres[i].Err) != classify(rres.Results[i].Err) ||
					mres[i].Result.Placed != rres.Results[i].Result.Placed {
					t.Fatalf("op %d batch item %d (%s): mono placed=%v err=%v, routed placed=%v err=%v",
						op, i, items[i].ID, mres[i].Result.Placed, mres[i].Err,
						rres.Results[i].Result.Placed, rres.Results[i].Err)
				}
				if mres[i].Result.Placed {
					live = append(live, items[i].ID)
				}
			}
		case roll < 0.95 && len(live) > 0: // remove a live id
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			_, merr := mono.Remove(ctx, id)
			_, _, rerr := router.Remove(ctx, id)
			if classify(merr) != classify(rerr) || merr != nil {
				t.Fatalf("op %d remove(%s): mono %v, routed %v", op, id, merr, rerr)
			}
		default: // remove an unknown id: not found everywhere
			id := fmt.Sprintf("never-%d", op)
			_, merr := mono.Remove(ctx, id)
			_, _, rerr := router.Remove(ctx, id)
			if classify(merr) != "unknown" || classify(rerr) != "unknown" {
				t.Fatalf("op %d remove unknown(%s): mono %v, routed %v", op, id, merr, rerr)
			}
		}
	}

	// The union of the routed groups' placements must equal the monolith's.
	monoIDs := liveIDs(t, mono)
	var routedIDs []string
	for g := 0; g < router.Groups(); g++ {
		lg := router.groups[g].(*LocalGroup)
		routedIDs = append(routedIDs, liveIDs(t, lg.Cluster)...)
	}
	sort.Strings(monoIDs)
	sort.Strings(routedIDs)
	if fmt.Sprint(monoIDs) != fmt.Sprint(routedIDs) {
		t.Fatalf("live placement unions diverge:\nmono:   %v\nrouted: %v", monoIDs, routedIDs)
	}
	sort.Strings(live)
	if fmt.Sprint(live) != fmt.Sprint(monoIDs) {
		t.Fatalf("live set diverges from the stream's bookkeeping:\nwant: %v\ngot:  %v", live, monoIDs)
	}
}

// liveIDs lists a cluster's live placement ids via removal probes on the
// tracked set — Status counts them but does not name them, so the test
// asks the placement surface directly.
func liveIDs(t *testing.T, c *serve.Cluster) []string {
	t.Helper()
	var ids []string
	st := c.Status()
	// PlacementInfo gives per-id lookups; walk the id space the stream
	// used. The stream's ids are p-0..p-N and never-*, bounded well below
	// 10000.
	for i := 0; i < 10_000 && len(ids) < st.Placements; i++ {
		id := fmt.Sprintf("p-%d", i)
		if _, ok := c.Placement(id); ok {
			ids = append(ids, id)
		}
	}
	if len(ids) != st.Placements {
		t.Fatalf("found %d live ids, status says %d", len(ids), st.Placements)
	}
	return ids
}
