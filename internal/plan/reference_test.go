package plan

import (
	"math"
	"testing"

	"hrtsched/internal/machine"
	"hrtsched/internal/sim"
)

// The hyperperiod simulation below is the differential reference for the
// demand test (demand.go): EDF run over one hyperperiod, charging the
// same jobCharge per job and starting its clock at the same
// windowCharge. It decides only sets whose hyperperiod and run are short
// enough to simulate.

// MaxSimSteps bounds the reference simulation, so a pathological
// hyperperiod cannot stall a test.
const MaxSimSteps = 1 << 16

// maxHyperperiodNs is the longest hyperperiod the reference simulates
// (about 18 simulated minutes).
const maxHyperperiodNs = int64(1) << 40

// simulateSet runs EDF over one hyperperiod of the task set, charging
// overheadNs of scheduler time at each arrival and each slice completion,
// and reserving the non-periodic fraction implied by utilLimit. Its clock
// starts at windowCharge, the arrivals no job's own charge pays for. It
// reports whether every job met its deadline. decided is false when the
// hyperperiod passes maxHyperperiodNs, a charge passes it, or the run
// needs more than MaxSimSteps steps.
func simulateSet(tasks TaskSet, overheadNs int64, utilLimit float64) (res SimResult, decided bool) {
	if len(tasks) == 0 {
		return SimResult{OK: true, Reason: OK}, true
	}
	hyper := int64(1)
	for _, t := range tasks {
		if t.PeriodNs <= 0 || t.SliceNs <= 0 {
			return SimResult{Reason: BadTask}, true
		}
		hyper = mulCharge(hyper/gcd64(hyper, t.PeriodNs), t.PeriodNs)
		if c := jobCharge(t, overheadNs, utilLimit); hyper < 0 || hyper > maxHyperperiodNs ||
			c < 0 || c > maxHyperperiodNs {
			return SimResult{}, false
		}
	}
	if w := windowCharge(len(tasks), overheadNs); w < 0 || w > maxHyperperiodNs {
		return SimResult{}, false
	}
	return simulate(tasks, overheadNs, utilLimit, hyper)
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// simJob is one released, not-yet-finished job in the EDF simulation.
type simJob struct {
	task     int
	deadline int64
	rem      int64
}

// releaseJobs appends the jobs of every task with an arrival at `at`.
func releaseJobs(ready []simJob, tasks TaskSet, at, overheadNs int64, utilLimit float64) []simJob {
	for i, t := range tasks {
		if at%t.PeriodNs == 0 {
			ready = append(ready, simJob{task: i, deadline: at + t.PeriodNs,
				rem: jobCharge(t, overheadNs, utilLimit)})
		}
	}
	return ready
}

// nextReleaseAfter returns the earliest arrival instant strictly after
// `after`.
func nextReleaseAfter(tasks TaskSet, after int64) int64 {
	next := int64(-1)
	for _, t := range tasks {
		r := (after/t.PeriodNs + 1) * t.PeriodNs
		if next == -1 || r < next {
			next = r
		}
	}
	return next
}

// simulate is simulateSet's validated core.
func simulate(tasks TaskSet, overheadNs int64, utilLimit float64, hyper int64) (SimResult, bool) {
	// Releases inside the window need no pass of their own: a window that
	// reaches one also reaches the first deadline, which then misses.
	now := windowCharge(len(tasks), overheadNs)
	steps := 0
	ready := releaseJobs(nil, tasks, 0, overheadNs, utilLimit)
	for now < hyper {
		steps++
		if steps > MaxSimSteps {
			return SimResult{Steps: steps}, false
		}
		if len(ready) == 0 {
			now = nextReleaseAfter(tasks, now)
			if now < hyper {
				ready = releaseJobs(ready, tasks, now, overheadNs, utilLimit)
			}
			continue
		}
		// EDF: find the earliest deadline.
		best := 0
		for i := 1; i < len(ready); i++ {
			if ready[i].deadline < ready[best].deadline {
				best = i
			}
		}
		j := &ready[best]
		runUntil := now + j.rem
		if nr := nextReleaseAfter(tasks, now); nr < runUntil {
			runUntil = nr
		}
		if runUntil > j.deadline {
			// This job cannot finish in time.
			return SimResult{Reason: HyperperiodMiss, Steps: steps}, true
		}
		j.rem -= runUntil - now
		if j.rem <= 0 {
			ready[best] = ready[len(ready)-1]
			ready = ready[:len(ready)-1]
		}
		now = runUntil
		if now < hyper {
			ready = releaseJobs(ready, tasks, now, overheadNs, utilLimit)
		}
	}
	// Jobs still outstanding at the hyperperiod boundary have deadlines at
	// or before it only if they missed.
	for _, j := range ready {
		if j.rem > 0 && j.deadline <= hyper {
			return SimResult{Reason: HyperperiodMiss, Steps: steps}, true
		}
	}
	return SimResult{OK: true, Reason: OK, Steps: steps}, true
}

// referenceVerdict is the verdict the simulation gives a set, through
// the same bound and digest as Analyze; decided is false where the
// simulation cannot decide it.
func referenceVerdict(spec Spec, set TaskSet) (Verdict, bool) {
	util, digest := set.Utilization(), set.Digest()
	for _, t := range set {
		if !t.Valid() {
			return badTaskVerdict(util, digest), true
		}
	}
	sim, decided := simulateSet(set, spec.OverheadNs, spec.UtilizationLimit)
	return judge(spec, util, digest, sim), decided
}

// sameDecision reports whether two verdicts agree on every field but
// Sim.Steps, which counts different work in the two procedures.
func sameDecision(a, b Verdict) bool {
	a.Sim.Steps, b.Sim.Steps = 0, 0
	return a == b
}

// referenceSpecs are the specs the differential tests draw from: both
// platform presets at the paper's 0.99 limit, the core tests' Phi at
// 79 %, and no overhead at limit 1, where a job's charge is its slice.
var referenceSpecs = []Spec{
	SpecFor(machine.PhiKNL(), 0.99),
	SpecFor(machine.R415(), 0.99),
	specPhi79,
	{OverheadNs: 0, UtilizationLimit: 1},
}

// referenceSetsPerSpec is how many random sets TestAnalyzeMatchesReference
// draws under each spec: the long form under `make planverify`, a short
// form in plain `go test`.
func referenceSetsPerSpec() int {
	if VerifyEnabled {
		return 50_000
	}
	return 2_500
}

// referenceBases are the period bases, in µs, of the random sets: their
// multiples by 1–3 keep most hyperperiods short enough to simulate.
var referenceBases = []int64{4, 5, 8, 10, 16, 20, 25, 40, 50, 80, 100, 125, 200, 250, 400, 500, 1000}

// randReferenceSet draws 1–6 tasks whose summed utilization spreads
// around the boundary, so admissions, bound rejections and demand misses
// all occur.
func randReferenceSet(r *sim.Rand) TaskSet {
	n := 1 + r.Intn(6)
	set := make(TaskSet, n)
	total := 0.1 + 1.1*r.Float64()
	for i := range set {
		p := referenceBases[r.Intn(len(referenceBases))] * int64(1+r.Intn(3)) * 1_000
		u := total / float64(n) * (0.5 + r.Float64())
		set[i] = Task{PeriodNs: p, SliceNs: min(p, max(1, int64(u*float64(p))))}
	}
	return set
}

// TestAnalyzeMatchesReference is the differential property: on every
// random set the reference simulation decides, Analyze and a patched
// Incremental give the reference's verdict in every field but Sim.Steps.
// No draw reaches the checkpoint budget.
func TestAnalyzeMatchesReference(t *testing.T) {
	rng := sim.NewRand(0x5eed_d3a7)
	misses := 0
	for _, spec := range referenceSpecs {
		reasons := map[Reason]int{}
		undecided := 0
		for i := 0; i < referenceSetsPerSpec(); i++ {
			set := randReferenceSet(rng)
			want, decided := referenceVerdict(spec, set)
			if !decided {
				undecided++
				continue
			}
			got := Analyze(spec, set)
			if !sameDecision(got, want) {
				t.Fatalf("spec %+v set %v:\n demand    %+v\n reference %+v", spec, set, got, want)
			}
			if inc := NewIncremental(spec).TryGang(set); inc != got {
				t.Fatalf("spec %+v set %v: incremental %+v, Analyze %+v", spec, set, inc, got)
			}
			reasons[got.Reason]++
		}
		if reasons[OK] == 0 || reasons[UtilBound] == 0 {
			t.Fatalf("spec %+v: draws missed a verdict kind: %v", spec, reasons)
		}
		misses += reasons[HyperperiodMiss]
		t.Logf("spec %+v: 0 disagreements; %v, %d undecided by the reference", spec, reasons, undecided)
	}
	if misses == 0 {
		t.Fatal("no draw missed a deadline")
	}
}

// TestAnalyzeMatchesReferenceEdges pins the sets where U′ is exactly 1:
// a single task whose charge equals its period admits, one nanosecond
// less of period misses (where the charge exceeds the slice), and a
// multi-task set admits at U′ = 1 only without a window charge.
func TestAnalyzeMatchesReferenceEdges(t *testing.T) {
	type edge struct {
		spec  Spec
		set   TaskSet
		admit bool
	}
	var edges []edge
	for _, spec := range referenceSpecs {
		for _, slice := range []int64{1, 999, 40_000, 1_000_003} {
			c := jobCharge(Task{SliceNs: slice}, spec.OverheadNs, spec.UtilizationLimit)
			edges = append(edges, edge{spec, TaskSet{{PeriodNs: c, SliceNs: slice}}, true})
			if c > slice {
				edges = append(edges, edge{spec, TaskSet{{PeriodNs: c - 1, SliceNs: slice}}, false})
			}
		}
	}
	harmonic := TaskSet{{PeriodNs: 1_000, SliceNs: 300}, {PeriodNs: 2_000, SliceNs: 800}}
	edges = append(edges,
		edge{Spec{OverheadNs: 0, UtilizationLimit: 1}, TaskSet{{PeriodNs: 1_000, SliceNs: 500}, {PeriodNs: 2_000, SliceNs: 1_000}}, true},
		edge{Spec{OverheadNs: 100, UtilizationLimit: 1}, harmonic, false},
		edge{Spec{OverheadNs: 0, UtilizationLimit: 1}, TaskSet{{PeriodNs: 3_000, SliceNs: 1_000}, {PeriodNs: 7_000, SliceNs: 4_666}}, true})
	for _, e := range edges {
		want, decided := referenceVerdict(e.spec, e.set)
		got := Analyze(e.spec, e.set)
		if !decided || !sameDecision(got, want) || got.Sim.OK != e.admit {
			t.Fatalf("spec %+v set %v: demand %+v, reference %+v (decided %v), want sim ok %v",
				e.spec, e.set, got, want, decided, e.admit)
		}
	}
}

// FuzzAnalyzeMatchesReference: Analyze never panics, a patched
// Incremental answers its verdict exactly (adding the set to an empty
// engine, and removing its first task after a Restore), and wherever both the
// reference simulation and the demand test decide — the test has not
// run out of checkpoints — they agree in every field but Sim.Steps.
func FuzzAnalyzeMatchesReference(f *testing.F) {
	f.Add(int64(100), 1.0, uint8(1), int64(math.MaxInt64), int64(math.MaxInt64-1), int64(0), int64(0), int64(0), int64(0))
	f.Add(int64(100), 0.99, uint8(1), int64(math.MaxInt64), int64(sliceAt99), int64(0), int64(0), int64(0), int64(0))
	f.Add(int64(100), 1.0, uint8(2), budgetSet[0].PeriodNs, budgetSet[0].SliceNs, budgetSet[1].PeriodNs, budgetSet[1].SliceNs, int64(0), int64(0))
	f.Add(int64(4_600), 0.79, uint8(2), int64(20_000), int64(14_000), int64(1_000_000), int64(1_000), int64(0), int64(0))
	f.Add(int64(5_194), 0.99, uint8(3), int64(100_000), int64(30_000), int64(200_000), int64(40_000), int64(300_000), int64(20_000))
	f.Add(int64(0), 1.0, uint8(2), int64(1_000), int64(500), int64(2_000), int64(1_000), int64(0), int64(0))
	f.Add(int64(1<<62), 0.5, uint8(3), int64(1), int64(1), int64(math.MaxInt64), int64(1<<62), int64(-1), int64(5))
	f.Add(int64(100), 1.0, uint8(3), int64(math.MaxInt64), int64(1<<62), int64(math.MaxInt64), int64(1<<61), int64(math.MaxInt64), int64(1<<62))
	f.Fuzz(func(t *testing.T, o int64, limit float64, n uint8, p0, s0, p1, s1, p2, s2 int64) {
		spec := Spec{OverheadNs: o, UtilizationLimit: limit}
		set := TaskSet{{PeriodNs: p0, SliceNs: s0}, {PeriodNs: p1, SliceNs: s1}, {PeriodNs: p2, SliceNs: s2}}[:n%4]
		got := Analyze(spec, set)
		eng := NewIncremental(spec)
		if inc := eng.TryGang(set); inc != got {
			t.Fatalf("spec %+v set %v: incremental %+v, Analyze %+v", spec, set, inc, got)
		}
		if len(set) > 0 {
			eng.Restore(set)
			if v, _ := eng.RemoveGang(set[:1]); v != Analyze(spec, set[1:]) {
				t.Fatalf("spec %+v set %v: removing the first task: %+v, Analyze %+v", spec, set, v, Analyze(spec, set[1:]))
			}
		}
		if o < 0 || math.IsNaN(got.Utilization) || math.IsNaN(limit) || got.Sim.Reason == CheckpointBudget {
			return // no reference semantics, or a conservative rejection
		}
		if want, decided := referenceVerdict(spec, set); decided && !sameDecision(got, want) {
			t.Fatalf("spec %+v set %v:\n demand    %+v\n reference %+v", spec, set, got, want)
		}
	})
}
