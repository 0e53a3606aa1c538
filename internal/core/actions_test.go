package core

import (
	"errors"
	"testing"

	"hrtsched/internal/plan"
)

func TestSleepUntilWakes(t *testing.T) {
	k := testKernel(t, 1, 31, nil)
	var wokeAtNs int64
	sleepTarget := int64(5_000_000)
	done := false
	k.Spawn("sleeper", 0, ProgramFunc(func(tc *ThreadCtx) Action {
		if tc.NowNs < sleepTarget {
			return SleepUntil{WallNs: sleepTarget}
		}
		if !done {
			done = true
			wokeAtNs = tc.NowNs
			return Exit{}
		}
		return Exit{}
	}))
	k.RunNs(20_000_000)
	if !done {
		t.Fatalf("sleeper never woke")
	}
	if wokeAtNs < sleepTarget {
		t.Fatalf("woke at %d, before target %d", wokeAtNs, sleepTarget)
	}
	if wokeAtNs > sleepTarget+100_000 {
		t.Fatalf("woke at %d, %.0fus late", wokeAtNs, float64(wokeAtNs-sleepTarget)/1000)
	}
}

func TestBlockAndWake(t *testing.T) {
	k := testKernel(t, 1, 32, nil)
	phase := 0
	th := k.Spawn("blocker", 0, ProgramFunc(func(tc *ThreadCtx) Action {
		phase++
		if phase == 1 {
			return Block{}
		}
		return Exit{}
	}))
	k.RunNs(2_000_000)
	if th.State() != Blocked {
		t.Fatalf("state = %v, want blocked", th.State())
	}
	k.Wake(th)
	k.RunNs(2_000_000)
	if th.State() != Exited || phase != 2 {
		t.Fatalf("wake did not resume: state=%v phase=%d", th.State(), phase)
	}
	// Waking an exited thread is a no-op.
	k.Wake(th)
	k.RunNs(1_000_000)
	if th.State() != Exited {
		t.Fatalf("wake corrupted exited thread")
	}
}

func TestYieldRoundRobins(t *testing.T) {
	k := testKernel(t, 1, 33, nil)
	var order []int
	mk := func(id int) Program {
		return ProgramFunc(func(tc *ThreadCtx) Action {
			if len(order) > 8 {
				return Exit{}
			}
			order = append(order, id)
			return Yield{}
		})
	}
	k.Spawn("a", 0, mk(0))
	k.Spawn("b", 0, mk(1))
	k.RunNs(30_000_000)
	if len(order) < 6 {
		t.Fatalf("threads starved: %v", order)
	}
	// Yield with equal priority must alternate.
	for i := 1; i < 6; i++ {
		if order[i] == order[i-1] {
			t.Fatalf("yield did not rotate: %v", order)
		}
	}
}

func TestCallRunsInThreadContext(t *testing.T) {
	k := testKernel(t, 2, 34, nil)
	var sawCPU, sawID int
	th := k.Spawn("caller", 1, Seq(
		Call{Fn: func(tc *ThreadCtx) {
			sawCPU = tc.CPU
			sawID = tc.T.ID()
		}},
		Compute{Cycles: 1000},
	))
	k.RunNs(5_000_000)
	if sawCPU != 1 || sawID != th.ID() {
		t.Fatalf("call context wrong: cpu=%d id=%d", sawCPU, sawID)
	}
}

func TestSporadicLifecycle(t *testing.T) {
	k := testKernel(t, 1, 35, nil)
	admitted := false
	th := k.Spawn("burst", 0, ProgramFunc(func(tc *ThreadCtx) Action {
		if !admitted {
			admitted = true
			// 200us of work guaranteed within 5ms, then priority 77.
			return ChangeConstraints{C: SporadicConstraints(0, 200_000, 5_000_000, 77)}
		}
		if !tc.AdmitOK {
			t.Fatalf("sporadic admission failed: %v", tc.AdmitErr)
		}
		return Compute{Cycles: 20_000}
	}))
	k.RunNs(2_000_000)
	if th.Constraints().Type != Aperiodic || th.Constraints().Priority != 77 {
		t.Fatalf("sporadic did not transition to aperiodic(77): %+v", th.Constraints())
	}
	if th.Misses != 0 {
		t.Fatalf("sporadic missed its deadline")
	}
	// The guaranteed burst must have been served well before the deadline.
	burstNs := k.Clocks[0].CyclesToNanos(th.SupplyCycles)
	if burstNs < 200_000 {
		t.Fatalf("burst under-served: %d ns", burstNs)
	}
	if ls := k.Locals[0]; ls.sporadicUtil != 0 {
		t.Fatalf("sporadic reservation not released: %f", ls.sporadicUtil)
	}
}

func TestSporadicReservationEnforced(t *testing.T) {
	// Two concurrent 8% sporadic requests against the 10% reservation:
	// the second must be rejected while the first is still active. Tested
	// at the admission-API level so the two requests are exactly
	// simultaneous (an end-to-end version would race against the first
	// burst completing and legitimately releasing its reservation).
	k := testKernel(t, 1, 36, nil)
	ls := k.Locals[0]
	t1 := k.Spawn("s1", 0, spin(1000))
	t2 := k.Spawn("s2", 0, spin(1000))
	k.RunNs(1_000_000)
	cons := SporadicConstraints(0, 80_000, 1_000_000, 100)
	nowNs := k.Clocks[0].NowNanos()
	if err := ls.Admit(t1, cons, nowNs); err != nil {
		t.Fatalf("first sporadic rejected: %v", err)
	}
	if u := ls.sporadicUtil; u < 0.079 || u > 0.081 {
		t.Fatalf("sporadic utilization = %f, want 0.08", u)
	}
	err := ls.Admit(t2, cons, nowNs)
	if !errors.Is(err, ErrAdmission) {
		t.Fatalf("second sporadic not rejected: %v", err)
	}
	// Rejection must not leak reservation.
	if u := ls.sporadicUtil; u < 0.079 || u > 0.081 {
		t.Fatalf("reservation leaked on rejection: %f", u)
	}
	// A smaller request that fits the remaining 2% is accepted.
	if err := ls.Admit(t2, SporadicConstraints(0, 15_000, 1_000_000, 100), nowNs); err != nil {
		t.Fatalf("fitting sporadic rejected: %v", err)
	}
}

func TestAdmitCheckDoesNotMutate(t *testing.T) {
	k := testKernel(t, 1, 37, nil)
	ls := k.Locals[0]
	th := k.Spawn("x", 0, spin(1000))
	k.RunNs(1_000_000)
	before := ls.PeriodicUtilization()
	if err := ls.AdmitCheck(th, PeriodicConstraints(0, 100_000, 50_000)); err != nil {
		t.Fatalf("feasible check failed: %v", err)
	}
	if ls.PeriodicUtilization() != before {
		t.Fatalf("AdmitCheck mutated utilization")
	}
	if err := ls.AdmitCheck(th, PeriodicConstraints(0, 100_000, 99_500)); err == nil {
		t.Fatalf("infeasible check passed")
	}
	if err := ls.AdmitCheck(th, PeriodicConstraints(0, -5, 1)); err == nil {
		t.Fatalf("malformed constraints passed")
	}
}

func TestAdmissionReplacesReservation(t *testing.T) {
	k := testKernel(t, 1, 38, nil)
	step := 0
	var th *Thread
	th = k.Spawn("resize", 0, ProgramFunc(func(tc *ThreadCtx) Action {
		step++
		switch step {
		case 1:
			return ChangeConstraints{C: PeriodicConstraints(0, 100_000, 60_000)}
		case 2:
			if !tc.AdmitOK {
				t.Fatalf("first admission failed: %v", tc.AdmitErr)
			}
			// 60% -> 70%: checks that the old reservation is released before
			// the new one is charged.
			return ChangeConstraints{C: PeriodicConstraints(0, 100_000, 70_000)}
		case 3:
			if !tc.AdmitOK {
				t.Fatalf("re-admission failed: %v", tc.AdmitErr)
			}
			return Compute{Cycles: 10_000}
		default:
			return Compute{Cycles: 10_000}
		}
	}))
	k.RunNs(20_000_000)
	u := k.Locals[0].PeriodicUtilization()
	if u < 0.69 || u > 0.71 {
		t.Fatalf("utilization after re-admission = %f, want 0.70", u)
	}
	if th.Misses != 0 {
		t.Fatalf("misses after resize: %d", th.Misses)
	}
}

func TestExitReleasesUtilization(t *testing.T) {
	k := testKernel(t, 1, 39, nil)
	admitted := false
	k.Spawn("brief", 0, ProgramFunc(func(tc *ThreadCtx) Action {
		if !admitted {
			admitted = true
			return ChangeConstraints{C: PeriodicConstraints(0, 100_000, 50_000)}
		}
		return Exit{}
	}))
	k.RunNs(5_000_000)
	if u := k.Locals[0].PeriodicUtilization(); u != 0 {
		t.Fatalf("exited thread still reserves %f", u)
	}
	if k.LiveThreads() != 0 {
		t.Fatalf("live threads = %d", k.LiveThreads())
	}
}

func TestGranularityLimits(t *testing.T) {
	k := testKernel(t, 1, 40, nil)
	var got error
	done := false
	k.Spawn("tiny", 0, ProgramFunc(func(tc *ThreadCtx) Action {
		if !done {
			done = true
			// Far below the platform's minimum period.
			return ChangeConstraints{C: PeriodicConstraints(0, 100, 50)}
		}
		got = tc.AdmitErr
		return Exit{}
	}))
	k.RunNs(5_000_000)
	if !errors.Is(got, ErrTooFine) {
		t.Fatalf("sub-granularity constraints accepted: %v", got)
	}
}

func TestRMPolicyStricter(t *testing.T) {
	count := func(policy AdmitPolicy) int {
		k := testKernel(t, 1, 41, func(c *Config) { c.Admit = policy })
		admitted := 0
		done := 0
		const n = 12
		for i := 0; i < n; i++ {
			local, reported := false, false
			k.Spawn("p", 0, ProgramFunc(func(tc *ThreadCtx) Action {
				if !local {
					local = true
					return ChangeConstraints{C: PeriodicConstraints(0, 1_000_000, 100_000)}
				}
				if !reported {
					reported = true
					done++
					if tc.AdmitOK {
						admitted++
					}
				}
				if tc.AdmitOK {
					return Compute{Cycles: 10_000}
				}
				return Exit{}
			}))
		}
		k.RunUntil(func() bool { return done == n }, 1<<24)
		return admitted
	}
	edf := count(AdmitEDF)
	rm := count(AdmitRM)
	if edf != 9 { // floor(0.99 / 0.10)
		t.Fatalf("EDF admitted %d, want 9", edf)
	}
	if rm >= edf {
		t.Fatalf("RM (%d) should admit fewer than EDF (%d)", rm, edf)
	}
	if rm < 4 {
		t.Fatalf("RM admitted only %d; bound should allow ~5", rm)
	}
}

func TestAdmitSimRejectsInfeasibleFineGrain(t *testing.T) {
	// A 25us period at 70% slice passes the utilization bound, but with
	// two ~5.2us worst-case scheduler invocations per job it cannot
	// actually be scheduled (Figure 6's infeasible region). AdmitSim asks
	// plan.Analyze, which must reject it where the bound admits it.
	verdict := func(policy AdmitPolicy, periodNs, sliceNs int64) error {
		k := testKernel(t, 1, 42, func(c *Config) { c.Admit = policy })
		th := k.Spawn("x", 0, spin(1000))
		k.RunNs(1_000_000)
		return k.Locals[0].AdmitCheck(th, PeriodicConstraints(0, periodNs, sliceNs))
	}
	// The utilization bound admits this infeasible request...
	if err := verdict(AdmitEDF, 25_000, 17_500); err != nil {
		t.Fatalf("EDF bound unexpectedly rejected: %v", err)
	}
	// ...the analysis does not, and says why with its own reason tag.
	var ae *AdmissionError
	if err := verdict(AdmitSim, 25_000, 17_500); !errors.As(err, &ae) || ae.Reason != "hyperperiod-miss" {
		t.Fatalf("analysis admitted an infeasible fine-grain set: %v", err)
	}
	// A 20us period is below the minimum period (4·o) under either policy.
	for _, policy := range []AdmitPolicy{AdmitEDF, AdmitSim} {
		if err := verdict(policy, 20_000, 14_000); !errors.Is(err, ErrTooFine) {
			t.Fatalf("policy %v: 20us period answered %v, want ErrTooFine", policy, err)
		}
	}
	// Both admit a clearly feasible coarse request.
	if err := verdict(AdmitSim, 1_000_000, 500_000); err != nil {
		t.Fatalf("simulation rejected a feasible set: %v", err)
	}
}

func TestAdmitSimEndToEndZeroMisses(t *testing.T) {
	// Whatever the simulation admits must actually run without misses.
	k := testKernel(t, 1, 43, func(c *Config) { c.Admit = AdmitSim })
	a := k.Spawn("a", 0, mkPeriodic(PeriodicConstraints(0, 100_000, 20_000)))
	b := k.Spawn("b", 0, mkPeriodic(PeriodicConstraints(0, 200_000, 60_000)))
	k.RunNs(60_000_000)
	if !a.IsRT() || !b.IsRT() {
		t.Fatalf("feasible set rejected by simulation")
	}
	if a.Misses != 0 || b.Misses != 0 {
		t.Fatalf("simulation-admitted set missed: a=%d b=%d", a.Misses, b.Misses)
	}
}

func TestSimulateHyperperiodUnit(t *testing.T) {
	// Pure-function checks of the analysis AdmitSim asks (internal/plan).
	spec := plan.Spec{OverheadNs: 4_600, UtilizationLimit: 0.79} // ~6000 cycles at 1.3GHz
	admit := func(set plan.TaskSet) bool { return plan.Analyze(spec, set).Admit }
	if !admit(plan.TaskSet{{PeriodNs: 100_000, SliceNs: 30_000}, {PeriodNs: 200_000, SliceNs: 60_000}}) {
		t.Fatalf("feasible harmonic set rejected")
	}
	if admit(plan.TaskSet{{PeriodNs: 10_000, SliceNs: 8_000}}) {
		t.Fatalf("over-dense set admitted")
	}
	if !admit(nil) {
		t.Fatalf("empty set rejected")
	}
	if admit(plan.TaskSet{{PeriodNs: 0, SliceNs: 1}}) {
		t.Fatalf("malformed task admitted")
	}
	// A ~10^18 ns hyperperiod: decided exactly without simulating it. The
	// light set is admitted before its first deadline needs a check.
	long := plan.Analyze(spec, plan.TaskSet{{PeriodNs: 999_983, SliceNs: 10}, {PeriodNs: 999_979, SliceNs: 10}, {PeriodNs: 999_961, SliceNs: 10}})
	if !long.Admit || long.Sim.Steps != 0 {
		t.Fatalf("light long-hyperperiod set: %+v, want admitted with no checkpoint", long)
	}
}
