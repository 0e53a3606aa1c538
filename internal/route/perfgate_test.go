//go:build perfgate

package route

import (
	"testing"
	"time"

	"hrtsched/internal/plan"
)

// measureRoutedOpsPerSec times `rounds` scaleout rounds against a fresh
// fleet and returns placements (batch items) per second.
func measureRoutedOpsPerSec(tb testing.TB, groups, rounds int) float64 {
	r := newScaleoutRouter(tb, groups)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		scaleoutRound(tb, r, i)
	}
	elapsed := time.Since(start)
	return float64(rounds*opBatchSize) / elapsed.Seconds()
}

// TestRoutedPlaceScaleoutAtLeast1_8x is the scale-out acceptance gate:
// routed place-batch throughput across 4 shard groups must be at least
// 1.8x a single group on the same 8 nodes. The mechanism is algorithmic
// (smaller per-group committed sets make every admission cheaper), so the
// gate does not depend on core count. A timed ratio flakes when packages
// run in parallel, so it runs only under the perfgate tag, serially, from
// `make perf-gate`. Best of 3 attempts; skipped where timing is not
// representative (-race, planverify, -short).
func TestRoutedPlaceScaleoutAtLeast1_8x(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing gate skipped under -race")
	}
	if plan.VerifyEnabled {
		t.Skip("timing gate skipped under planverify")
	}
	const want = 1.8
	best := 0.0
	for attempt := 0; attempt < 3; attempt++ {
		one := measureRoutedOpsPerSec(t, 1, 6)
		four := measureRoutedOpsPerSec(t, 4, 6)
		ratio := four / one
		t.Logf("attempt %d: one-group %.0f ops/s, four-group %.0f ops/s, ratio %.2fx",
			attempt, one, four, ratio)
		if ratio > best {
			best = ratio
		}
		if best >= want {
			return
		}
	}
	t.Fatalf("routed place scale-out %.2fx, want >= %.1fx", best, want)
}
