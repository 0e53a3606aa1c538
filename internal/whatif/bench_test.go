package whatif

import (
	"runtime"
	"testing"
)

// benchScenario is the unit of the recorded throughput figures: a 2-CPU
// half-random what-if with a 1 ms hyperperiod.
func benchScenario(reps int) Scenario {
	return Scenario{
		Name: "bench",
		CPUs: 2,
		Tasks: []Task{
			{PeriodNs: 1_000_000, SliceNs: 300_000, CPU: 0},
			{PeriodNs: 1_000_000, SliceNs: 300_000, CPU: 1},
		},
		Model:        "half-random",
		Replications: reps,
		Hyperperiods: 1,
	}
}

// BenchmarkWhatifHyperperiod measures one seeded single-hyperperiod
// replication end to end; 1e9/ns-per-op is simulate_hyperperiods_per_sec
// in BENCH_PR10.json.
func BenchmarkWhatifHyperperiod(b *testing.B) {
	sc := benchScenario(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(sc, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWhatifScenario measures a full default-sized request (20
// replications); 1e9/ns-per-op is simulate_scenarios_per_sec.
func BenchmarkWhatifScenario(b *testing.B) {
	sc := benchScenario(0) // Normalize applies the default 20
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(sc, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// raceEnabled is set by race_enabled_test.go under -race.
var raceEnabled bool

// TestReplicationAllocationBudget is the deterministic gate behind the
// benchmarks above: one benchScenario(1) request — a kernel boot and a
// full simulated hyperperiod — stays within 200 allocations and 20 KiB,
// so a boot costs what the scenario needs, not what MaxThreads allows.
func TestReplicationAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race measure the detector")
	}
	const (
		maxAllocs = 200
		maxBytes  = 20 << 10
		runs      = 50
	)
	sc := benchScenario(1)
	run := func() {
		if _, err := Run(sc, 7); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(runs, run); allocs > maxAllocs {
		t.Errorf("one replication allocates %.0f times, budget %d", allocs, maxAllocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	if bytes := (after.TotalAlloc - before.TotalAlloc) / runs; bytes > maxBytes {
		t.Errorf("one replication allocates %d bytes, budget %d", bytes, maxBytes)
	}
}
