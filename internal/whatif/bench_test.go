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

// BenchmarkWhatifSteadyState measures one seeded replication of 100
// hyperperiods, so the boot it shares with BenchmarkWhatifHyperperiod is
// amortized over a hundred times the simulated work: ns-per-op over 100
// is the per-hyperperiod cost of the simulation itself.
func BenchmarkWhatifSteadyState(b *testing.B) {
	sc := benchScenario(1)
	sc.Hyperperiods = 100
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

// requestCost measures one Run of sc: allocations (testing.AllocsPerRun)
// and bytes allocated, averaged over runs requests.
func requestCost(t *testing.T, sc Scenario, runs int) (allocs float64, bytes uint64) {
	t.Helper()
	run := func() {
		if _, err := Run(sc, 7); err != nil {
			t.Fatal(err)
		}
	}
	allocs = testing.AllocsPerRun(runs, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestReplicationAllocationBudget is the deterministic gate behind the
// benchmarks above. One benchScenario(1) request — a kernel boot and a
// full simulated hyperperiod — stays within 150 allocations and 16 KiB,
// so a boot costs what the scenario needs, not what MaxThreads allows.
// Each further replication of a request — the difference between a
// 16-replication and a 1-replication request, over 15 — stays within 1
// allocation and 512 bytes: it re-boots the request's replica in place
// rather than building a machine and kernel of its own, and simulating
// it allocates nothing (see TestHyperperiodAllocationBudget).
func TestReplicationAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race measure the detector")
	}
	const (
		maxAllocs         = 150
		maxBytes          = 16 << 10
		maxMarginalAllocs = 1
		maxMarginalBytes  = 512
		runs              = 50
	)
	allocs1, bytes1 := requestCost(t, benchScenario(1), runs)
	if allocs1 > maxAllocs {
		t.Errorf("one replication allocates %.0f times, budget %d", allocs1, maxAllocs)
	}
	if bytes1 > maxBytes {
		t.Errorf("one replication allocates %d bytes, budget %d", bytes1, maxBytes)
	}
	allocs16, bytes16 := requestCost(t, benchScenario(16), runs)
	marginalAllocs := (allocs16 - allocs1) / 15
	marginalBytes := (int64(bytes16) - int64(bytes1)) / 15
	t.Logf("one replication: %.0f allocs, %d B; each further one: %.1f allocs, %d B",
		allocs1, bytes1, marginalAllocs, marginalBytes)
	if marginalAllocs > maxMarginalAllocs {
		t.Errorf("each further replication allocates %.1f times, budget %d", marginalAllocs, maxMarginalAllocs)
	}
	if marginalBytes > maxMarginalBytes {
		t.Errorf("each further replication allocates %d bytes, budget %d", marginalBytes, maxMarginalBytes)
	}
}

// TestHyperperiodAllocationBudget is the per-event gate: once a
// replication is booted, simulating it allocates nothing. Each further
// simulated hyperperiod — the difference between a 41-hyperperiod and a
// 1-hyperperiod request, over 40 — makes fewer than one allocation, with
// and without stochastic execution costs and an SMI storm. Every
// scheduler pass, action, kick, wake and fault arrival is scheduled with
// a bound handler and a payload instead of a fresh closure, thread
// contexts and timed actions are reused rather than boxed, so an event
// allocates only when the engine's free list first grows.
func TestHyperperiodAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race measure the detector")
	}
	const runs = 10
	for _, model := range []string{"wcet", "half-random"} {
		for _, faults := range [][]string{nil, {"smi-storm"}} {
			sc := benchScenario(1)
			sc.Model, sc.Faults = model, faults
			allocs1, _ := requestCost(t, sc, runs)
			sc.Hyperperiods = 41
			allocs41, _ := requestCost(t, sc, runs)
			perHyperperiod := (allocs41 - allocs1) / 40
			t.Logf("%s %v: %.0f allocs at 1 hyperperiod, %.0f at 41: %.2f per hyperperiod",
				model, faults, allocs1, allocs41, perHyperperiod)
			if perHyperperiod >= 1 {
				t.Errorf("%s %v: each further hyperperiod allocates %.2f times, want < 1",
					model, faults, perHyperperiod)
			}
		}
	}
}
