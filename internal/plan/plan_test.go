package plan

import (
	"math"
	"reflect"
	"testing"

	"hrtsched/internal/machine"
)

// specPhi79 mirrors the configuration the core admission tests use: the
// Phi's ~6000-cycle invocation cost (~4.6 us at 1.3 GHz) and a 79%
// utilization limit.
var specPhi79 = Spec{OverheadNs: 4_600, UtilizationLimit: 0.79}

// budgetSpec charges 100 ns invocations at limit 1, so a job's charge is
// its slice plus 200 ns exactly.
var budgetSpec = Spec{OverheadNs: 100, UtilizationLimit: 1}

// budgetSet has U′ = 1 − 1/(T1·T2) under budgetSpec: its charges solve
// c1·T2 + c2·T1 = T1·T2 − 1 for the primes T1, T2. L_a is ~10^14 ns,
// and the walk down from it runs out of checkpoints.
var budgetSet = TaskSet{{PeriodNs: 999_983, SliceNs: 349_794}, {PeriodNs: 1_000_003, SliceNs: 649_802}}

// sliceAt99 is ⌊0.99·(2^63−1)⌋: at limit 0.99 its charge passes
// math.MaxInt64 once 200 ns of overhead are added.
const sliceAt99 = 9_131_138_316_486_228_048

func TestAnalyzeBoundaryTable(t *testing.T) {
	// Boundary cases around the Figure 6/7 infeasible region, long
	// hyperperiods, and charges past math.MaxInt64.
	cases := []struct {
		name    string
		spec    Spec // specPhi79 when zero
		set     TaskSet
		admit   bool
		boundOK bool
		simOK   bool
		reason  Reason
	}{
		{
			// The heart of Figures 6/7: 20 us period at 70% slice passes
			// the utilization bound, but with ~9.2 us of charged scheduler
			// overhead per period the platform cannot schedule it. The
			// bound admits; the simulation correctly rejects.
			name:    "infeasible-region-bound-admits-sim-rejects",
			set:     TaskSet{{PeriodNs: 20_000, SliceNs: 14_000}},
			admit:   false,
			boundOK: true,
			simOK:   false,
			reason:  HyperperiodMiss,
		},
		{
			// Same utilization at coarse granularity is feasible: overhead
			// is amortized over a 1 ms period.
			name:    "same-utilization-coarse-feasible",
			set:     TaskSet{{PeriodNs: 1_000_000, SliceNs: 700_000}},
			admit:   true,
			boundOK: true,
			simOK:   true,
			reason:  OK,
		},
		{
			// Over the bound: rejected by the closed form before the
			// simulation's verdict matters.
			name:    "over-utilization-bound",
			set:     TaskSet{{PeriodNs: 10_000, SliceNs: 8_000}},
			admit:   false,
			boundOK: false,
			simOK:   false,
			reason:  UtilBound,
		},
		{
			// Harmonic two-task set well inside the feasible region.
			name:    "feasible-harmonic-pair",
			set:     TaskSet{{PeriodNs: 100_000, SliceNs: 30_000}, {PeriodNs: 200_000, SliceNs: 60_000}},
			admit:   true,
			boundOK: true,
			simOK:   true,
			reason:  OK,
		},
		{
			// One 68% task fits its 100 us period with both invocations
			// charged: (68 + 9.2) / 0.79 us = 97.7 us.
			name:    "window-term-single-task-fits",
			set:     TaskSet{{PeriodNs: 100_000, SliceNs: 68_000}},
			admit:   true,
			boundOK: true,
			simOK:   true,
			reason:  OK,
		},
		{
			// A 1 ms neighbour's arrival pre-empts it once per window: the
			// (n-1)*o window charge adds 4.6 us, and 102.3 us misses.
			name:    "window-term-pair-misses",
			set:     TaskSet{{PeriodNs: 100_000, SliceNs: 68_000}, {PeriodNs: 1_000_000, SliceNs: 1_000}},
			admit:   false,
			boundOK: true,
			simOK:   false,
			reason:  HyperperiodMiss,
		},
		{
			// Empty set: trivially admissible.
			name:    "empty-set",
			set:     nil,
			admit:   true,
			boundOK: true,
			simOK:   true,
			reason:  OK,
		},
		{
			// Coprime ~1 ms periods: a hyperperiod of ~10^18 ns, which no
			// simulation could run. The demand test needs none: L_a is
			// below the first deadline, so the set is admitted outright.
			name: "coprime-long-hyperperiod-admits",
			set: TaskSet{{PeriodNs: 999_983, SliceNs: 10},
				{PeriodNs: 999_979, SliceNs: 10}, {PeriodNs: 999_961, SliceNs: 10}},
			admit:   true,
			boundOK: true,
			simOK:   true,
			reason:  OK,
		},
		{
			// Two coprime periods whose ~10^12 ns hyperperiod holds ~2M
			// release events: admitted without walking them.
			name:    "many-releases-admits",
			set:     TaskSet{{PeriodNs: 999_983, SliceNs: 10}, {PeriodNs: 1_000_003, SliceNs: 10}},
			admit:   true,
			boundOK: true,
			simOK:   true,
			reason:  OK,
		},
		{
			// U′ = 1 − 10^-12 and w > 0: the walk down from L_a runs out
			// of checkpoints before it finds a miss; the set is rejected
			// conservatively.
			name:    "checkpoint-budget-conservative-reject",
			spec:    budgetSpec,
			set:     budgetSet,
			admit:   false,
			boundOK: true,
			simOK:   false,
			reason:  CheckpointBudget,
		},
		{
			// U′ = 1 − 1/(T1·T2) ≈ 1 − 6·10^-16, closer to 1 than the
			// float sum can tell: decided in exact rationals. Without
			// overhead, L_a is 0 and the set admits.
			name:    "u-just-below-one-exact-admits",
			spec:    Spec{OverheadNs: 0, UtilizationLimit: 1},
			set:     TaskSet{{PeriodNs: 40_000_003, SliceNs: 28_888_891}, {PeriodNs: 40_000_021, SliceNs: 11_111_117}},
			admit:   true,
			boundOK: true,
			simOK:   true,
			reason:  OK,
		},
		{
			// U′ = 1 + 1/(T1·T2): within the utilization epsilon, but
			// demand over a hyperperiod exceeds it.
			name:    "u-just-above-one-exact-misses",
			spec:    Spec{OverheadNs: 0, UtilizationLimit: 1},
			set:     TaskSet{{PeriodNs: 40_000_003, SliceNs: 11_111_112}, {PeriodNs: 40_000_021, SliceNs: 28_888_904}},
			admit:   false,
			boundOK: true,
			simOK:   false,
			reason:  HyperperiodMiss,
		},
		{
			// slice + 2·o passes math.MaxInt64: an unchecked sum reads
			// -9.2e18 and admits. The charge exceeds the period.
			name:    "charge-overflow-limit-1",
			spec:    budgetSpec,
			set:     TaskSet{{PeriodNs: math.MaxInt64, SliceNs: math.MaxInt64 - 1}},
			admit:   false,
			boundOK: true,
			simOK:   false,
			reason:  HyperperiodMiss,
		},
		{
			// (slice + 2·o)/0.99 passes math.MaxInt64, though the float
			// quotient rounds to just under it.
			name:    "charge-overflow-limit-0.99",
			spec:    Spec{OverheadNs: 100, UtilizationLimit: 0.99},
			set:     TaskSet{{PeriodNs: math.MaxInt64, SliceNs: sliceAt99}},
			admit:   false,
			boundOK: true,
			simOK:   false,
			reason:  HyperperiodMiss,
		},
		{
			// Structurally malformed: slice exceeds period.
			name:    "bad-task-slice-over-period",
			set:     TaskSet{{PeriodNs: 10_000, SliceNs: 20_000}},
			admit:   false,
			boundOK: false,
			simOK:   false,
			reason:  BadTask,
		},
		{
			// Structurally malformed: non-positive period.
			name:    "bad-task-zero-period",
			set:     TaskSet{{PeriodNs: 0, SliceNs: 1}},
			admit:   false,
			boundOK: false,
			simOK:   false,
			reason:  BadTask,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			if spec == (Spec{}) {
				spec = specPhi79
			}
			v := Analyze(spec, tc.set)
			if v.Admit != tc.admit {
				t.Fatalf("Admit = %v, want %v (verdict %+v)", v.Admit, tc.admit, v)
			}
			if v.BoundOK != tc.boundOK {
				t.Fatalf("BoundOK = %v, want %v", v.BoundOK, tc.boundOK)
			}
			if v.Sim.OK != tc.simOK {
				t.Fatalf("Sim.OK = %v, want %v (sim %+v)", v.Sim.OK, tc.simOK, v.Sim)
			}
			if v.Reason != tc.reason {
				t.Fatalf("Reason = %v, want %v", v.Reason, tc.reason)
			}
		})
	}
}

// TestSpecForChargesWorstCase: the derived invocation cost is the
// worst-case one, rounded up to whole nanoseconds (6752 cycles at 1.3 GHz
// is 5193.8 ns; 2946 at 2.2 GHz is 1339.1 ns).
func TestSpecForChargesWorstCase(t *testing.T) {
	for _, tc := range []struct {
		m    machine.Spec
		want int64
	}{{machine.PhiKNL(), 5194}, {machine.R415(), 1340}} {
		if got := SpecFor(tc.m, 0.99); got != (Spec{OverheadNs: tc.want, UtilizationLimit: 0.99}) {
			t.Errorf("SpecFor(%s) = %+v, want OverheadNs %d", tc.m.Name, got, tc.want)
		}
	}
}

// TestSimStepBoundActuallyBounds: the reference simulation gives up on
// a run past MaxSimSteps instead of simulating ~2M release events.
func TestSimStepBoundActuallyBounds(t *testing.T) {
	res, decided := simulateSet(TaskSet{{PeriodNs: 999_983, SliceNs: 10}, {PeriodNs: 1_000_003, SliceNs: 10}},
		specPhi79.OverheadNs, specPhi79.UtilizationLimit)
	if decided {
		t.Fatalf("expected the reference to give up, got %+v", res)
	}
	if res.Steps > MaxSimSteps+1 {
		t.Fatalf("simulation overran its step bound: %d steps", res.Steps)
	}
}

func TestAnalyzeDeterministicAndOrderIndependent(t *testing.T) {
	a := TaskSet{{PeriodNs: 200_000, SliceNs: 60_000}, {PeriodNs: 100_000, SliceNs: 30_000}}
	b := TaskSet{{PeriodNs: 100_000, SliceNs: 30_000}, {PeriodNs: 200_000, SliceNs: 60_000}}
	va, vb := Analyze(specPhi79, a), Analyze(specPhi79, b)
	if !reflect.DeepEqual(va, vb) {
		t.Fatalf("verdicts differ across task orderings:\n%+v\n%+v", va, vb)
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("digests differ across task orderings")
	}
	if a.Digest() == (TaskSet{{PeriodNs: 100_000, SliceNs: 30_001}}).Digest() {
		t.Fatalf("distinct sets share a digest")
	}
	if again := Analyze(specPhi79, a); !reflect.DeepEqual(va, again) {
		t.Fatalf("Analyze is not deterministic")
	}
}

func TestAnalyzeGangAllOrNothing(t *testing.T) {
	existing := TaskSet{{PeriodNs: 1_000_000, SliceNs: 300_000}}
	fits := TaskSet{{PeriodNs: 1_000_000, SliceNs: 200_000}, {PeriodNs: 1_000_000, SliceNs: 200_000}}
	if v := AnalyzeGang(specPhi79, existing, fits); !v.Admit {
		t.Fatalf("feasible gang rejected: %+v", v)
	}
	tooBig := TaskSet{{PeriodNs: 1_000_000, SliceNs: 300_000}, {PeriodNs: 1_000_000, SliceNs: 300_000}}
	v := AnalyzeGang(specPhi79, existing, tooBig)
	if v.Admit {
		t.Fatalf("over-capacity gang admitted")
	}
	if v.Reason != UtilBound {
		t.Fatalf("Reason = %v, want UtilBound", v.Reason)
	}
}

func TestCapacityReportOverheadBites(t *testing.T) {
	set := TaskSet{{PeriodNs: 1_000_000, SliceNs: 300_000}}
	coarse := Capacity(specPhi79, set, 0) // probe at the set's own period
	if coarse.ProbePeriodNs != 1_000_000 {
		t.Fatalf("default probe period = %d, want the set's largest period", coarse.ProbePeriodNs)
	}
	if coarse.MaxExtraSliceNs <= 0 {
		t.Fatalf("coarse probe found no headroom at all: %+v", coarse)
	}
	if coarse.MaxExtraUtilization > coarse.BoundHeadroom+0.01 {
		t.Fatalf("found more capacity (%.3f) than the bound allows (%.3f)",
			coarse.MaxExtraUtilization, coarse.BoundHeadroom)
	}
	// A larger slice than the reported maximum must be rejected.
	probe := append(TaskSet(nil), set...)
	probe = append(probe, Task{PeriodNs: coarse.ProbePeriodNs, SliceNs: coarse.MaxExtraSliceNs + 1_000})
	if Analyze(specPhi79, probe).Admit {
		t.Fatalf("capacity report understated the admit edge")
	}

	// At fine granularity the per-invocation overhead eats most of the
	// headroom: the same CPU takes much less extra utilization.
	fine := Capacity(specPhi79, set, 20_000)
	if fine.MaxExtraUtilization >= coarse.MaxExtraUtilization {
		t.Fatalf("fine-grain capacity (%.3f) should be below coarse (%.3f)",
			fine.MaxExtraUtilization, coarse.MaxExtraUtilization)
	}
}

func TestCapacityEmptySetDefaults(t *testing.T) {
	r := Capacity(specPhi79, nil, 0)
	if r.ProbePeriodNs != 1_000_000 {
		t.Fatalf("empty-set probe period = %d, want 1ms default", r.ProbePeriodNs)
	}
	if r.MaxExtraUtilization <= 0.5 {
		t.Fatalf("an idle CPU should take most of the limit, got %.3f", r.MaxExtraUtilization)
	}
}
