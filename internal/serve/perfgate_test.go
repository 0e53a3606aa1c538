//go:build perfgate

package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"hrtsched/internal/plan"
)

// TestDurablePlaceThroughputAtLeast8k is the group-commit acceptance gate:
// with durability on, concurrent placement mutations must sustain at least
// 8k ops/s — each op acked only after its record is fsynced. The bar was
// 5k until the greedy queue drain (no flush-window wait before a batch
// commits) raised the measured rate enough to hold a higher floor.
// Wall-clock fsync throughput is at the mercy of whatever else the box is
// running, so the gate runs only under the perfgate tag, serially, from
// `make perf-gate`, and takes the best of three attempts; tier-1 keeps the
// deterministic TestDurablePlaceGroupCommitsQueuedMutations.
func TestDurablePlaceThroughputAtLeast8k(t *testing.T) {
	if testing.Short() {
		t.Skip("perf gate skipped in -short")
	}
	if raceEnabled {
		t.Skip("wall-clock perf gate skipped under the race detector")
	}
	var rate float64
	for attempt := 1; attempt <= 3; attempt++ {
		rate = durablePlaceRate(t)
		if t.Failed() {
			return
		}
		t.Logf("durable mutation rate: %.0f ops/s (attempt %d)", rate, attempt)
		if rate >= 8000 {
			return
		}
	}
	t.Fatalf("durable place throughput %.0f ops/s, want >= 8000", rate)
}

func durablePlaceRate(t *testing.T) float64 {
	c := newTestCluster(t, ClusterConfig{Nodes: 4, Durability: &DurabilityConfig{Dir: t.TempDir()}})
	ctx := context.Background()
	set := plan.TaskSet{{PeriodNs: 1_000_000, SliceNs: 2_000}}
	const workers, perWorker = 8, 400
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				res, err := c.Place(ctx, id, set)
				if err != nil || !res.Placed {
					t.Errorf("Place(%s): %+v, %v", id, res, err)
					return
				}
				if _, err := c.Remove(ctx, id); err != nil {
					t.Errorf("Remove(%s): %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if t.Failed() {
		return 0
	}
	st := c.Status()
	if st.Durability == nil || st.Durability.Degraded {
		t.Fatalf("store degraded during the run: %+v", st.Durability)
	}
	ops := int64(workers * perWorker * 2)
	if st.Durability.Records != ops {
		t.Fatalf("logged %d records, want %d", st.Durability.Records, ops)
	}
	return float64(ops) / elapsed.Seconds()
}
