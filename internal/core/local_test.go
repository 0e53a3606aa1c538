package core

import (
	"testing"

	"hrtsched/internal/machine"
	"hrtsched/internal/sim"
)

func TestSMIDelaysButEagerAbsorbs(t *testing.T) {
	// A feasible periodic thread with a mid-period SMI: eager scheduling
	// started the slice early, so the missing time does not push completion
	// past the deadline.
	spec := machine.PhiKNL().Scaled(1)
	m := machine.New(spec, 51)
	k := Boot(m, DefaultConfig(spec))
	th := k.Spawn("rt", 0, mkPeriodic(PeriodicConstraints(0, 100_000, 40_000)))
	// Inject an SMI of 26,000 cycles (20us) every period, landing mid-slice.
	for i := int64(0); i < 50; i++ {
		m.SMI.InjectAt(sim.Time(2_000_000+i*130_000), 26_000)
	}
	k.RunNs(20_000_000)
	if th.Arrivals < 150 {
		t.Fatalf("arrivals = %d", th.Arrivals)
	}
	if th.Misses != 0 {
		t.Fatalf("eager EDF missed %d deadlines under absorbable SMIs", th.Misses)
	}
	// The missing time must show up somewhere: total missing time observed.
	if m.SMI.TotalMissingTime() != 50*26_000 {
		t.Fatalf("missing time = %d", m.SMI.TotalMissingTime())
	}
}

func mkPeriodic(c Constraints) Program {
	admitted := false
	return ProgramFunc(func(tc *ThreadCtx) Action {
		if !admitted {
			admitted = true
			return ChangeConstraints{C: c}
		}
		return Compute{Cycles: 20_000}
	})
}

func TestLazyEDFMissesUnderSMI(t *testing.T) {
	// Same scenario but with a tight slice and lazy (latest-possible-start)
	// scheduling: SMIs landing near the deadline push completion past it
	// far more often than under eager scheduling.
	run := func(mode EDFMode) int64 {
		spec := machine.PhiKNL().Scaled(1)
		spec.MeanSMIGapCycles = 6_500_000 // ~5ms
		spec.SMIDurationCycles = 130_000  // 100us
		spec.SMIDurationJitter = 0
		m := machine.New(spec, 52)
		cfg := DefaultConfig(spec)
		cfg.Mode = mode
		k := Boot(m, cfg)
		th := k.Spawn("rt", 0, mkPeriodic(PeriodicConstraints(0, 500_000, 300_000)))
		k.RunNs(200_000_000)
		return th.Misses
	}
	eager := run(EagerEDF)
	lazy := run(LazyEDF)
	if lazy <= eager {
		t.Fatalf("lazy EDF (%d misses) should miss more than eager (%d) under SMIs",
			lazy, eager)
	}
}

func TestLazyEDFStillMeetsDeadlinesWithoutSMIs(t *testing.T) {
	k := testKernel(t, 1, 53, func(c *Config) { c.Mode = LazyEDF })
	th := k.Spawn("rt", 0, mkPeriodic(PeriodicConstraints(0, 200_000, 60_000)))
	k.RunNs(50_000_000)
	if th.Arrivals < 200 {
		t.Fatalf("arrivals = %d", th.Arrivals)
	}
	if th.Misses != 0 {
		t.Fatalf("lazy EDF missed %d deadlines on a quiet machine", th.Misses)
	}
}

func TestDeviceIRQDelaysThreadOnLadenCPU(t *testing.T) {
	spec := machine.PhiKNL().Scaled(2)
	m := machine.New(spec, 54)
	cfg := DefaultConfig(spec)
	cfg.PriorityFiltering = false // let interrupts hit the thread
	k := Boot(m, cfg)
	dev := m.IRQ.AddDevice("nic", 0, 50_000) // manual raising
	th := k.Spawn("victim", 0, spin(10_000))
	k.RunNs(2_000_000)
	before := th.SupplyCycles
	// 20 interrupts, each stealing ~50k+irq cycles from the thread.
	for i := 0; i < 20; i++ {
		k.Eng.Schedule(k.Eng.Now()+sim.Time(i*100_000), sim.Hard, func(sim.Time) { dev.Raise() })
	}
	k.RunNs(2_000_000)
	gained := th.SupplyCycles - before
	wall := int64(2_000_000 * 13 / 10) // 2ms in cycles
	stolen := wall - gained
	if stolen < 15*50_000 {
		t.Fatalf("interrupt handlers stole only %d cycles, want >= %d", stolen, 15*50_000)
	}
	if k.Locals[0].Stats.DeviceIRQs != 20 {
		t.Fatalf("device IRQs seen: %d", k.Locals[0].Stats.DeviceIRQs)
	}
}

func TestPriorityFilteringShieldsRTThread(t *testing.T) {
	spec := machine.PhiKNL().Scaled(1)
	m := machine.New(spec, 55)
	k := Boot(m, DefaultConfig(spec)) // filtering on by default
	m.IRQ.AddDevice("nic", 60_000, 30_000)
	th := k.Spawn("rt", 0, mkPeriodic(PeriodicConstraints(0, 100_000, 60_000)))
	k.RunNs(50_000_000)
	if th.Misses != 0 {
		t.Fatalf("RT thread missed %d deadlines despite priority filtering", th.Misses)
	}
	if th.Arrivals < 400 {
		t.Fatalf("arrivals = %d", th.Arrivals)
	}
}

func TestInterruptThreadDefersWork(t *testing.T) {
	spec := machine.PhiKNL().Scaled(1)
	m := machine.New(spec, 56)
	cfg := DefaultConfig(spec)
	cfg.InterruptThread = true
	cfg.PriorityFiltering = false
	k := Boot(m, cfg)
	dev := m.IRQ.AddDevice("nic", 0, 80_000)
	k.Spawn("bg", 0, spin(100_000))
	k.RunNs(1_000_000)
	for i := 0; i < 5; i++ {
		dev.Raise()
	}
	k.RunNs(10_000_000)
	// The deferred bodies ran as tasks on the helper thread.
	var helper *Thread
	for _, th := range k.Threads() {
		if th.Name() == "task-exec" {
			helper = th
		}
	}
	if helper == nil {
		t.Fatalf("interrupt thread never spawned")
	}
	if helper.SupplyCycles < 5*60_000 {
		t.Fatalf("deferred IRQ bodies under-executed: %d cycles", helper.SupplyCycles)
	}
	sized, unsized := k.TaskBacklog(0)
	if sized != 0 || unsized != 0 {
		t.Fatalf("task backlog not drained: %d/%d", sized, unsized)
	}
}

func TestTwoRTThreadsEDFOrdering(t *testing.T) {
	// Two periodic threads on one CPU: the shorter-period thread must not
	// be starved by the longer one (EDF interleaves them), and both meet
	// all deadlines at a combined 60% utilization.
	k := testKernel(t, 1, 57, nil)
	a := k.Spawn("fast", 0, mkPeriodic(PeriodicConstraints(0, 100_000, 30_000)))
	b := k.Spawn("slow", 0, mkPeriodic(PeriodicConstraints(0, 400_000, 120_000)))
	k.RunNs(80_000_000)
	if a.Misses != 0 || b.Misses != 0 {
		t.Fatalf("misses: fast=%d slow=%d", a.Misses, b.Misses)
	}
	if a.Arrivals < 700 || b.Arrivals < 150 {
		t.Fatalf("arrivals: fast=%d slow=%d", a.Arrivals, b.Arrivals)
	}
	// Supply proportions ~30%:30%.
	fa := float64(a.SupplyCycles)
	fb := float64(b.SupplyCycles)
	if ratio := fa / fb; ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("EDF supply imbalance: %f", ratio)
	}
}

func TestAperiodicPriorityPreemptsOnWake(t *testing.T) {
	k := testKernel(t, 1, 58, nil)
	low := k.SpawnPriority("low", 0, spin(10_000), 200)
	var highRan bool
	high := k.SpawnPriority("high", 0, ProgramFunc(func(tc *ThreadCtx) Action {
		if !highRan {
			highRan = true
			return Block{}
		}
		return Compute{Cycles: 5_000}
	}), 10)
	k.RunNs(5_000_000)
	if high.State() != Blocked {
		t.Fatalf("high thread not blocked: %v", high.State())
	}
	lowBefore := low.SupplyCycles
	k.Wake(high)
	k.RunNs(5_000_000)
	// After the wake, the high-priority thread must dominate the CPU.
	highGain := high.SupplyCycles
	lowGain := low.SupplyCycles - lowBefore
	if highGain < 4*lowGain {
		t.Fatalf("priority not honoured after wake: high=%d low=%d", highGain, lowGain)
	}
}

func TestSwitchStatsAndHook(t *testing.T) {
	k := testKernel(t, 1, 59, nil)
	var hookCalls int
	k.OnSwitch = func(cpu int, th *Thread, nowNs int64, wall sim.Time) {
		if cpu != 0 || th == nil {
			t.Fatalf("bad hook args")
		}
		hookCalls++
	}
	th := k.Spawn("rt", 0, mkPeriodic(PeriodicConstraints(0, 100_000, 50_000)))
	k.RunNs(10_000_000)
	if hookCalls < 90 {
		t.Fatalf("OnSwitch calls = %d, want ~100", hookCalls)
	}
	if th.Switches < 90 {
		t.Fatalf("thread switches = %d", th.Switches)
	}
	st := &k.Locals[0].Stats
	if st.TimerIRQs < 150 {
		t.Fatalf("timer IRQs = %d", st.TimerIRQs)
	}
	if st.IRQCycles.N() == 0 || st.ReschedCycles.N() == 0 {
		t.Fatalf("overhead breakdown not recorded")
	}
}

func TestMaxThreadsBound(t *testing.T) {
	k := testKernel(t, 1, 60, func(c *Config) { c.MaxThreads = 4 })
	for i := 0; i < 4; i++ {
		k.Spawn("t", 0, spin(1000))
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("compile-time thread bound not enforced")
		}
	}()
	k.Spawn("overflow", 0, spin(1000))
}

// TestBootLeavesRunQueuesUnallocated: the thread bound is a count, not
// preallocated storage, so booting a kernel for MaxThreads = 1024 leaves
// every run queue without a backing array until a thread is queued.
func TestBootLeavesRunQueuesUnallocated(t *testing.T) {
	k := testKernel(t, 4, 61, func(c *Config) { c.MaxThreads = 1024 })
	for _, s := range k.Locals {
		for name, h := range map[string]*threadHeap{"pending": s.pending, "rtq": s.rtq, "aperq": s.aperq} {
			if h.cap != 1024 {
				t.Errorf("cpu %d %s: bound %d, want 1024", s.CPU(), name, h.cap)
			}
			if c := cap(h.items); c != 0 {
				t.Errorf("cpu %d %s: cap(items) = %d after boot, want 0", s.CPU(), name, c)
			}
		}
	}
}
