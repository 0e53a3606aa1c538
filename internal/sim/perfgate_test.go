//go:build perfgate

package sim

import "testing"

// TestFreezeStormSpeedupAtLeast5x is the engine rewrite's headline number: an
// SMI storm over 10k pending soft events. The legacy engine rescans every
// soft event and re-heapifies the queue per freeze; the rewrite updates
// two counters. The bar is a deliberately conservative 5x — the measured
// gap is orders of magnitude. Both engines run the identical workload, so
// the ratio is robust to machine speed, but not to packages timed in
// parallel: it runs only under the perfgate tag, from `make perf-gate`.
func TestFreezeStormSpeedupAtLeast5x(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison, skipped in -short")
	}
	rewritten := testing.Benchmark(BenchmarkEngineFreezeStorm)
	legacy := testing.Benchmark(BenchmarkLegacyFreezeStorm)
	if rewritten.N == 0 || rewritten.NsPerOp() == 0 {
		t.Fatalf("freeze-storm benchmark did not run: %+v", rewritten)
	}
	ratio := float64(legacy.NsPerOp()) / float64(rewritten.NsPerOp())
	t.Logf("legacy %v ns/op, rewritten %v ns/op over %d pending: %.1fx",
		legacy.NsPerOp(), rewritten.NsPerOp(), freezeStormPending, ratio)
	if ratio < 5 {
		t.Fatalf("freeze speedup %.1fx < 5x (legacy %dns/op, rewritten %dns/op)",
			ratio, legacy.NsPerOp(), rewritten.NsPerOp())
	}
}
