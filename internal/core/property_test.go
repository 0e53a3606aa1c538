package core

import (
	"math/big"
	"testing"
	"testing/quick"

	"hrtsched/internal/machine"
	"hrtsched/internal/plan"
	"hrtsched/internal/sim"
)

// TestPropertyAdmittedNeverMisses is the scheduler's central contract
// (Section 3.1): "If the scheduler accepts these constraints, it guarantees
// that they will be met until the thread decides to change them." Random
// periodic task sets are thrown at admission control; whatever it admits
// must then run with zero deadline misses.
//
// Scope: the classic utilization-bound admission test is overhead-blind
// (it is the paper's classic scheme; see ablation-admitsim), so the
// property checked here is "a set the service admits runs on the kernel
// with zero misses": sets plan.Analyze rejects under the kernel's own spec
// are skipped. The unconditional version of this property runs under the
// AdmitSim policy below.
func TestPropertyAdmittedNeverMisses(t *testing.T) {
	periods := []int64{50_000, 100_000, 200_000, 250_000, 500_000, 1_000_000}
	f := func(seed uint64, nRaw uint8, sliceRaw []uint8) bool {
		n := int(nRaw%5) + 1
		if len(sliceRaw) < n {
			return true
		}
		k := testKernel(t, 1, seed, nil)
		rng := sim.NewRand(seed)
		set := make(plan.TaskSet, 0, n)
		ths := make([]*Thread, 0, n)
		for i := 0; i < n; i++ {
			period := periods[rng.Intn(len(periods))]
			pct := int64(sliceRaw[i]%35) + 2 // 2..36% each
			cons := PeriodicConstraints(0, period, period*pct/100)
			set = append(set, plan.Task{PeriodNs: cons.PeriodNs, SliceNs: cons.SliceNs})
			ths = append(ths, k.Spawn("p", 0, mkPeriodic(cons)))
		}
		if !plan.Analyze(k.admit, set).Admit {
			return true // the service rejects it; see AdmitSim
		}
		k.RunNs(40_000_000)
		for _, th := range ths {
			if th.IsRT() && th.Misses != 0 {
				t.Logf("seed=%d: admitted thread missed %d/%d (cons %+v)",
					seed, th.Misses, th.Arrivals, th.Constraints())
				return false
			}
			if th.IsRT() && th.Arrivals == 0 {
				return false // admitted but never ran
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 63}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyLongHyperperiodAdmittedNeverMisses is the wrong-ADMIT
// probe for sets no hyperperiod simulation could check: integer periods
// drawn from [50 µs, 2 ms], so most sets' period LCM passes 2^40 ns,
// where admission used to reject conservatively. Every set plan.Analyze
// admits under the kernel's spec runs for a fixed 40 ms with zero
// misses, and the draws must include admitted sets past 2^40 ns.
func TestPropertyLongHyperperiodAdmittedNeverMisses(t *testing.T) {
	const draws = 400
	rng := sim.NewRand(0x10ab)
	admitted, long, walked := 0, 0, 0
	for i := 0; i < draws; i++ {
		seed := rng.Uint64()
		k := testKernel(t, 1, seed, nil)
		n := 1 + rng.Intn(5)
		set := make(plan.TaskSet, 0, n)
		ths := make([]*Thread, 0, n)
		for j := 0; j < n; j++ {
			period := 50_000 + rng.Int63n(1_950_001)
			cons := PeriodicConstraints(0, period, period*(2+rng.Int63n(35))/100)
			set = append(set, plan.Task{PeriodNs: cons.PeriodNs, SliceNs: cons.SliceNs})
			ths = append(ths, k.Spawn("p", 0, mkPeriodic(cons)))
		}
		v := plan.Analyze(k.admit, set)
		if !v.Admit {
			continue
		}
		admitted++
		if lcmPast(set, 1<<40) {
			long++
			if v.Sim.Steps > 0 {
				walked++
			}
		}
		k.RunNs(40_000_000)
		for _, th := range ths {
			if !th.IsRT() || th.Arrivals == 0 || th.Misses != 0 {
				t.Fatalf("seed=%d set %v: admitted thread rt=%v missed %d/%d",
					seed, set, th.IsRT(), th.Misses, th.Arrivals)
			}
		}
	}
	t.Logf("%d draws: %d admitted, %d of them with a period LCM past 2^40 ns (%d examined a checkpoint); 0 missed",
		draws, admitted, long, walked)
	if long == 0 {
		t.Fatalf("no admitted set had a period LCM past 2^40 ns (%d admitted)", admitted)
	}
}

// lcmPast reports whether the LCM of the set's periods exceeds limit.
func lcmPast(set plan.TaskSet, limit int64) bool {
	l := big.NewInt(1)
	for _, t := range set {
		p := big.NewInt(t.PeriodNs)
		g := new(big.Int).GCD(nil, nil, l, p)
		l.Mul(l, p.Quo(p, g))
	}
	return l.Cmp(big.NewInt(limit)) > 0
}

// TestPropertyAdmittedNeverMissesUnderSim does the same under the
// hyperperiod-simulation admission policy, which should be at least as
// safe.
func TestPropertyAdmittedNeverMissesUnderSim(t *testing.T) {
	periods := []int64{100_000, 200_000, 400_000}
	f := func(seed uint64, sliceRaw []uint8) bool {
		n := 3
		if len(sliceRaw) < n {
			return true
		}
		k := testKernel(t, 1, seed, func(c *Config) { c.Admit = AdmitSim })
		rng := sim.NewRand(seed)
		ths := make([]*Thread, 0, n)
		for i := 0; i < n; i++ {
			period := periods[rng.Intn(len(periods))]
			pct := int64(sliceRaw[i]%30) + 2
			cons := PeriodicConstraints(0, period, period*pct/100)
			ths = append(ths, k.Spawn("p", 0, mkPeriodic(cons)))
		}
		k.RunNs(40_000_000)
		for _, th := range ths {
			if th.IsRT() && th.Misses != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySupplyConservation: no thread is ever credited more execution
// than wall-clock time permits, and total per-CPU supply never exceeds
// elapsed wall time.
func TestPropertySupplyConservation(t *testing.T) {
	f := func(seed uint64, mix uint8) bool {
		k := testKernel(t, 2, seed, nil)
		var ths []*Thread
		ths = append(ths, k.Spawn("a", 0, mkPeriodic(PeriodicConstraints(0, 100_000, int64(mix%40+10)*1000))))
		ths = append(ths, k.Spawn("b", 0, spin(25_000)))
		ths = append(ths, k.Spawn("c", 1, spin(40_000)))
		runNs := int64(20_000_000)
		k.RunNs(runNs)
		wallCycles := int64(sim.NanosToCycles(runNs, k.M.Spec.FreqHz))
		perCPU := map[int]int64{}
		for _, th := range k.Threads() {
			if th.SupplyCycles < 0 {
				return false
			}
			perCPU[th.CPU()] += th.SupplyCycles
		}
		_ = ths
		for _, total := range perCPU {
			if total > wallCycles {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDeterministicReplay: identical seeds produce bit-identical
// schedules regardless of workload mix.
func TestPropertyDeterministicReplay(t *testing.T) {
	f := func(seed uint64, mix uint8) bool {
		run := func() (int64, int64, uint64, int64) {
			spec := machine.PhiKNL().Scaled(3)
			m := machine.New(spec, seed)
			k := Boot(m, DefaultConfig(spec))
			a := k.Spawn("a", 1, mkPeriodic(PeriodicConstraints(0, 100_000, int64(mix%50+5)*1000)))
			b := k.SpawnStealable("b", 1, spin(30_000))
			k.PostTask(1, &Task{SizeCycles: 20_000, ActualCycles: 18_000})
			k.RunNs(15_000_000)
			return a.SupplyCycles, b.SupplyCycles, k.Eng.Steps(), a.Arrivals
		}
		a1, b1, e1, r1 := run()
		a2, b2, e2, r2 := run()
		return a1 == a2 && b1 == b2 && e1 == e2 && r1 == r2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSMIStormEventuallyMisses: failure injection — SMIs so frequent and
// long that no scheduler can hide them must surface as misses (the eager
// policy mitigates, it does not perform miracles).
func TestSMIStormEventuallyMisses(t *testing.T) {
	spec := machine.PhiKNL().Scaled(1)
	spec.MeanSMIGapCycles = 200_000 // ~154us between SMIs
	spec.SMIDurationCycles = 90_000 // ~69us each: >45% of all time vanishes
	spec.SMIDurationJitter = 0
	m := machine.New(spec, 171)
	k := Boot(m, DefaultConfig(spec))
	th := k.Spawn("rt", 0, mkPeriodic(PeriodicConstraints(0, 100_000, 60_000)))
	k.RunNs(50_000_000)
	if th.Misses == 0 {
		t.Fatalf("a 45%% SMI storm cannot be absorbed; misses must appear")
	}
	// And the miss accounting must stay coherent.
	if th.Misses > th.Arrivals {
		t.Fatalf("misses (%d) exceed arrivals (%d)", th.Misses, th.Arrivals)
	}
}
