package sim

import "testing"

// Gated acceptance bars for the engine rewrite. The timed freeze-storm
// ratio against the preserved legacy engine lives in perfgate_test.go;
// the allocation gate below counts, so it stays in tier-1.

// TestRearmChurnZeroAllocsPerOp gates the other half of the rewrite: the
// steady-state timer re-arm (Cancel + Reschedule of a persistent event)
// and the pooled schedule/fire cycle must not allocate.
func TestRearmChurnZeroAllocsPerOp(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison, skipped in -short")
	}
	rearm := testing.Benchmark(BenchmarkEngineRearm)
	if rearm.N == 0 {
		t.Fatalf("re-arm benchmark did not run: %+v", rearm)
	}
	if a := rearm.AllocsPerOp(); a != 0 {
		t.Fatalf("timer re-arm allocates %d/op, want 0", a)
	}
	fire := testing.Benchmark(BenchmarkEngineThroughput)
	if fire.N == 0 {
		t.Fatalf("throughput benchmark did not run: %+v", fire)
	}
	if a := fire.AllocsPerOp(); a != 0 {
		t.Fatalf("pooled schedule/fire cycle allocates %d/op, want 0", a)
	}
}
