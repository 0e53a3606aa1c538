//go:build perfgate

package plan

import "testing"

// TestRepeatAdmissionSpeedupAtLeast10x is the fast-path acceptance gate: a
// repeated admission answered from the memo must be at least 10x faster
// than re-running the uncached analysis, and a batch gang probe answered
// from the retained curve at least 10x faster than a full re-analysis per
// candidate. Timed ratios flake when packages run in parallel, so it runs
// only under the perfgate tag, serially, from `make perf-gate`.
func TestRepeatAdmissionSpeedupAtLeast10x(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark-backed gate in -short mode")
	}
	skipUnderRace(t)
	if VerifyEnabled {
		// planverify cross-checks every curve verdict with a full Analyze,
		// which is exactly the work the fast path exists to avoid.
		t.Skip("skipping under -tags planverify: per-verdict verification erases the fast path")
	}
	uncached := testing.Benchmark(BenchmarkAnalyzeRepeatUncached)
	memo := testing.Benchmark(BenchmarkAnalyzeRepeatMemo)
	if memo.NsPerOp() == 0 {
		t.Skip("memo path too fast to measure")
	}
	if ratio := float64(uncached.NsPerOp()) / float64(memo.NsPerOp()); ratio < 10 {
		t.Fatalf("repeated-admission speedup %.1fx, want >= 10x (uncached %v, memo %v)",
			ratio, uncached.NsPerOp(), memo.NsPerOp())
	}
	full := testing.Benchmark(BenchmarkGangProbeUncached)
	curve := testing.Benchmark(BenchmarkGangProbeCurve)
	if curve.NsPerOp() == 0 {
		t.Skip("curve path too fast to measure")
	}
	if ratio := float64(full.NsPerOp()) / float64(curve.NsPerOp()); ratio < 10 {
		t.Fatalf("batch-probe speedup %.1fx, want >= 10x (full %v, curve %v)",
			ratio, full.NsPerOp(), curve.NsPerOp())
	}
}
