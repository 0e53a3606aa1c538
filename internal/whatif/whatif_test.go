package whatif

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"hrtsched/internal/core"
	"hrtsched/internal/fault"
	"hrtsched/internal/machine"
	"hrtsched/internal/sim"
	"hrtsched/internal/stats"
)

func testScenario() Scenario {
	return Scenario{
		Name: "unit",
		CPUs: 2,
		Tasks: []Task{
			{PeriodNs: 1_000_000, SliceNs: 400_000, CPU: 0},
			{PeriodNs: 2_000_000, SliceNs: 600_000, CPU: 1},
			{PeriodNs: 1_000_000, SliceNs: 300_000, CPU: 1, PhaseNs: 200_000},
		},
		Model:        "full-random",
		Faults:       []string{"smi-storm"},
		Degrade:      "demote",
		Replications: 5,
		Hyperperiods: 3,
	}
}

func TestModelParseRoundTrip(t *testing.T) {
	for _, s := range []string{
		"wcet", "full-random", "half-random", "random-0.8,1.2",
		"full-random:normal", "half-random:normal", "random-0.25,0.75:normal",
	} {
		m, err := ParseModel(s)
		if err != nil {
			t.Fatalf("ParseModel(%q): %v", s, err)
		}
		if got := m.String(); got != s {
			t.Errorf("ParseModel(%q).String() = %q", s, got)
		}
	}
	for _, s := range []string{
		"", "bogus", "wcet:normal", "random-1", "random-0,1", "random-2,1",
		"random-1,9", "full-random:cauchy", "random-0.5,NaN", "random-0.5,nan:normal",
	} {
		if _, err := ParseModel(s); err == nil {
			t.Errorf("ParseModel(%q): want error", s)
		}
	}
}

// FuzzParseModel checks that every accepted model string has finite
// fractions with 0 < a <= b <= 4 and renders to a string that parses
// back to the same model. Its seeds are the committed corpus in
// testdata/fuzz/FuzzParseModel.
func FuzzParseModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseModel(s)
		if err != nil {
			return
		}
		if m.Kind == ModelRange && !(m.LoFrac > 0 && m.LoFrac <= m.HiFrac && m.HiFrac <= maxRangeFrac) {
			t.Fatalf("ParseModel(%q) accepted fractions %v, %v", s, m.LoFrac, m.HiFrac)
		}
		again, err := ParseModel(m.String())
		if err != nil || again != m {
			t.Fatalf("ParseModel(%q) = %+v, but its form %q parses to %+v, %v", s, m, m.String(), again, err)
		}
	})
}

func TestDrawBounds(t *testing.T) {
	const wcet = 100_000
	cases := []struct {
		model  string
		lo, hi int64
	}{
		{"full-random", 1, wcet},
		{"half-random", wcet / 2, wcet},
		{"random-0.8,1.2", 80_000, 120_000},
		{"full-random:normal", 1, wcet},
		{"half-random:normal", wcet / 2, wcet},
	}
	for _, c := range cases {
		m, err := ParseModel(c.model)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRand(42)
		for i := 0; i < 2000; i++ {
			got := m.Draw(rng, wcet)
			if got < c.lo || got > c.hi {
				t.Fatalf("%s draw %d outside [%d, %d]", c.model, got, c.lo, c.hi)
			}
		}
	}
}

func TestWCETDrawInertAndConsumesNoRandomness(t *testing.T) {
	m, _ := ParseModel("wcet")
	rng := sim.NewRand(7)
	before := *rng
	if got := m.Draw(rng, 12345); got != 12345 {
		t.Fatalf("wcet draw = %d, want 12345", got)
	}
	if *rng != before {
		t.Fatal("wcet draw consumed randomness")
	}
	if m.Stochastic() {
		t.Fatal("wcet model reports stochastic")
	}
}

// TestSeededDeterminism: same scenario + seed => byte-identical report,
// text and JSON, across independent runs.
func TestSeededDeterminism(t *testing.T) {
	sc := testScenario()
	r1, err := Run(sc, 99)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(sc, 99)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Render() != r2.Render() {
		t.Fatalf("renders differ:\n%s\n--- vs ---\n%s", r1.Render(), r2.Render())
	}
	j1, err := json.Marshal(r1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(r2)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatal("JSON encodings differ")
	}
	if r1.EngineSteps == 0 {
		t.Fatal("no engine steps recorded")
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	sc := testScenario()
	r1, err := Run(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(sc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Render() == r2.Render() {
		t.Fatal("different seeds produced identical stochastic reports")
	}
}

// TestReportJSONRoundTrip: a decode/re-encode hop (what the routing proxy
// does for remote groups) must preserve the bytes exactly.
func TestReportJSONRoundTrip(t *testing.T) {
	r, err := Run(testScenario(), 5)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(j1, &back); err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatalf("round trip changed bytes:\n%s\n--- vs ---\n%s", j1, j2)
	}
	if back.Tasks[0].RespHist.N() != r.Tasks[0].RespHist.N() {
		t.Fatal("histogram sample count lost in round trip")
	}
}

// baselineReplication reproduces runReplication with the model layer
// stripped out: jobs compute their WCET directly, no model, no per-task
// randomness. The wcet execution model must be indistinguishable from it.
func baselineReplication(sc Scenario, spec machine.Spec, seed uint64, durationNs int64, recs []*jobRecorder) (steps uint64, arrivals, misses []int64) {
	m := machine.New(spec, seed)
	cfg := core.DefaultConfig(spec)
	cfg.Admit = core.AdmitNone
	cfg.WatchdogNs = 10_000_000
	k := core.Boot(m, cfg)
	core.AttachInvariants(k, seed, "whatif-baseline")

	threads := make([]*core.Thread, len(sc.Tasks))
	for i, task := range sc.Tasks {
		cons := core.PeriodicConstraints(task.PhaseNs, task.PeriodNs, task.SliceNs)
		wcet := int64(spec.NanosToCycles(task.SliceNs))
		if wcet < 1 {
			wcet = 1
		}
		rec := recs[i]
		state := 0
		var arrivalNs int64
		prog := core.ProgramFunc(func(tc *core.ThreadCtx) core.Action {
			switch state {
			case 0:
				state = 1
				return core.ChangeConstraints{C: cons}
			case 1:
				arrivalNs = tc.T.ArrivalNs()
				state = 2
				return core.Compute{Cycles: wcet}
			case 2:
				state = 3
				return core.Call{Fn: func(tc *core.ThreadCtx) {
					resp := tc.NowNs - arrivalNs
					rec.hist.Add(float64(resp))
					rec.sum.Add(float64(resp))
				}}
			default:
				state = 1
				return core.SleepUntil{WallNs: tc.T.DeadlineNs()}
			}
		})
		threads[i] = k.Spawn(task.Name, task.CPU, prog)
	}
	_ = &fault.Env{M: m, K: k, Rng: m.Rand()}
	k.RunNs(durationNs)
	arrivals = make([]int64, len(threads))
	misses = make([]int64, len(threads))
	for i, th := range threads {
		arrivals[i] = th.Arrivals
		misses[i] = th.Misses
	}
	return k.Eng.Steps(), arrivals, misses
}

// TestWCETInertDifferential proves the wcet model is inert: a whatif
// replication with model=wcet and no faults is bit-identical — engine
// step count, scheduler counters, and response-time observations — to the
// same workload hand-coded against the engine with no model layer at all.
func TestWCETInertDifferential(t *testing.T) {
	sc := testScenario()
	sc.Model = "wcet"
	sc.Faults = nil
	sc.Degrade = "off"
	sc = sc.Normalize()
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	spec, _ := machine.SpecByName(sc.Machine)
	spec = spec.Scaled(sc.CPUs)
	model, _ := ParseModel(sc.Model)
	durationNs := hyperperiodNs(sc.Tasks) * int64(sc.Hyperperiods)

	for _, seed := range []uint64{1, 7, 42} {
		mkRecs := func() []*jobRecorder {
			recs := make([]*jobRecorder, len(sc.Tasks))
			for i, task := range sc.Tasks {
				recs[i] = &jobRecorder{hist: stats.NewHistogram(0, float64(2*task.PeriodNs), respHistBuckets)}
			}
			return recs
		}
		wRecs, bRecs := mkRecs(), mkRecs()
		out := newReplica(new(Node), sc, spec, model, core.DegradeOff, wRecs).run(seed, durationNs)
		bSteps, bArrivals, bMisses := baselineReplication(sc, spec, seed, durationNs, bRecs)
		if out.steps != bSteps {
			t.Fatalf("seed %d: engine steps %d != baseline %d", seed, out.steps, bSteps)
		}
		for i := range sc.Tasks {
			if out.arrivals[i] != bArrivals[i] || out.misses[i] != bMisses[i] {
				t.Fatalf("seed %d task %d: arrivals/misses %d/%d != baseline %d/%d",
					seed, i, out.arrivals[i], out.misses[i], bArrivals[i], bMisses[i])
			}
			wj, _ := json.Marshal(wRecs[i].hist)
			bj, _ := json.Marshal(bRecs[i].hist)
			if string(wj) != string(bj) {
				t.Fatalf("seed %d task %d: response histograms differ", seed, i)
			}
		}
		if out.violations != 0 {
			t.Fatalf("seed %d: %d invariant violations", seed, out.violations)
		}
	}
}

// TestAdmissionDisagreementObserved: an overrun model (jobs may exceed
// their analytical budget) on an admitted set must surface
// admitted-but-missed replications, and the survival probability must
// reflect them.
func TestAdmissionDisagreementObserved(t *testing.T) {
	sc := Scenario{
		Name: "overrun",
		CPUs: 1,
		Tasks: []Task{
			{PeriodNs: 1_000_000, SliceNs: 450_000},
			{PeriodNs: 1_000_000, SliceNs: 450_000, PhaseNs: 500_000},
		},
		Model:        "random-1.0,1.6",
		Replications: 10,
		Hyperperiods: 4,
	}
	r, err := Run(sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Admit {
		t.Fatalf("expected analytical admit, got reason %s", r.AdmitReason)
	}
	if r.TotalLateJobs == 0 {
		t.Fatal("overrun model produced no late jobs")
	}
	if r.Disagreement.AdmittedMissedReps == 0 {
		t.Fatal("no admitted-but-missed replications recorded")
	}
	if r.SurvivalProb >= 1 {
		t.Fatalf("survival prob %v should be < 1", r.SurvivalProb)
	}
}

// TestVerdictIsPerCPU: each CPU's partition is analyzed on its own, as
// the kernel admits it. Two CPUs with one 60% task each admit, report
// their utilization per CPU, and run without a scheduler miss; the same
// two tasks on one CPU are rejected at the utilization cap.
func TestVerdictIsPerCPU(t *testing.T) {
	sc := Scenario{
		CPUs: 2,
		Tasks: []Task{
			{PeriodNs: 1_000_000, SliceNs: 600_000, WcetNs: 500_000, CPU: 0},
			{PeriodNs: 1_000_000, SliceNs: 600_000, WcetNs: 500_000, CPU: 1},
		},
		Replications: 3,
		Hyperperiods: 5,
	}
	r, err := Run(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Admit || r.AdmitReason != "ok" || r.TotalMisses != 0 {
		t.Fatalf("split 60%% tasks: admit=%t reason=%s misses=%d", r.Admit, r.AdmitReason, r.TotalMisses)
	}
	if !reflect.DeepEqual(r.CPUUtilization, []float64{0.6, 0.6}) || r.Utilization != 1.2 {
		t.Fatalf("utilization %v per CPU %v, want 1.2 as [0.6 0.6]", r.Utilization, r.CPUUtilization)
	}
	sc.Tasks[1].CPU = 0
	if r, err = Run(sc, 1); err != nil {
		t.Fatal(err)
	}
	if r.Admit || r.AdmitReason != "util-cap" || !reflect.DeepEqual(r.CPUUtilization, []float64{1.2, 0}) {
		t.Fatalf("stacked 60%% tasks: admit=%t reason=%s per CPU %v", r.Admit, r.AdmitReason, r.CPUUtilization)
	}
}

// TestSimulateSustains1000Hyperperiods is the acceptance gate: one request
// worth of work — 1000 single-hyperperiod replications — completes well
// inside the default request timeout.
func TestSimulateSustains1000Hyperperiods(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := Scenario{
		Name: "throughput",
		CPUs: 2,
		Tasks: []Task{
			{PeriodNs: 1_000_000, SliceNs: 300_000, CPU: 0},
			{PeriodNs: 1_000_000, SliceNs: 300_000, CPU: 1},
		},
		Model:        "half-random",
		Replications: 1000,
		Hyperperiods: 1,
	}
	start := time.Now()
	r, err := Run(sc, 11)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > 30*time.Second {
		t.Fatalf("1000 hyperperiod replications took %v, want < 30s", elapsed)
	}
	if r.Replications != 1000 {
		t.Fatalf("replications = %d", r.Replications)
	}
	t.Logf("1000 hyperperiod replications in %v (%.0f/s)",
		elapsed, 1000/elapsed.Seconds())
}

// TestNormalizeLeavesInputUnchanged: Normalize and Run fill in task names
// and WcetNs on their own copy, so a caller that edits a slice and runs
// the same scenario again gets the new slice's default WcetNs.
func TestNormalizeLeavesInputUnchanged(t *testing.T) {
	sc := testScenario()
	want := testScenario()
	norm := sc.Normalize()
	if !reflect.DeepEqual(sc, want) {
		t.Fatalf("Normalize changed its input:\n got %+v\nwant %+v", sc, want)
	}
	if norm.Tasks[0].Name != "task0" || norm.Tasks[0].WcetNs != sc.Tasks[0].SliceNs {
		t.Fatalf("Normalize did not fill in task 0: %+v", norm.Tasks[0])
	}
	if _, err := Run(sc, 3); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, want) {
		t.Fatalf("Run changed its input:\n got %+v\nwant %+v", sc, want)
	}
	sc.Tasks[0].SliceNs = 200_000
	r, err := Run(sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Tasks[0].WcetNs; got != 200_000 {
		t.Fatalf("after editing slice_ns, task 0 runs with wcet_ns %d, want the new slice 200000", got)
	}
}

func TestValidateRejects(t *testing.T) {
	base := testScenario()
	cases := []func(*Scenario){
		func(s *Scenario) { s.Machine = "cray" },
		func(s *Scenario) { s.Tasks = nil },
		func(s *Scenario) { s.Tasks[0].SliceNs = s.Tasks[0].PeriodNs + 1 },
		func(s *Scenario) { s.Tasks[0].CPU = 99 },
		func(s *Scenario) { s.Tasks[0].PhaseNs = s.Tasks[0].PeriodNs },
		func(s *Scenario) { s.Model = "bogus" },
		func(s *Scenario) { s.Faults = []string{"meteor"} },
		func(s *Scenario) { s.Degrade = "ignore" },
		func(s *Scenario) { s.Replications = MaxReplications + 1 },
		func(s *Scenario) { s.Hyperperiods = MaxHyperperiods + 1 },
		func(s *Scenario) { s.Tasks[0].PeriodNs = 999_983; s.Tasks[1].PeriodNs = 999_979 },
	}
	for i, mutate := range cases {
		sc := base
		sc.Tasks = append([]Task(nil), base.Tasks...)
		mutate(&sc)
		sc = sc.Normalize()
		if err := sc.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid scenario", i)
		}
	}
	if err := base.Normalize().Validate(); err != nil {
		t.Fatalf("base scenario invalid: %v", err)
	}
}

// TestReplicationSimulatesItsHorizon: every replication simulates its full
// Hyperperiods × hp window after boot. A 2-CPU boot calibration advances
// the clock by about a millisecond, longer than this 200 µs hyperperiod,
// so the window must be counted from the end of boot.
func TestReplicationSimulatesItsHorizon(t *testing.T) {
	for _, hps := range []int{1, 3} {
		sc := Scenario{
			Name: "horizon",
			CPUs: 2,
			Tasks: []Task{
				{PeriodNs: 100_000, SliceNs: 30_000, CPU: 0},
				{PeriodNs: 200_000, SliceNs: 50_000, CPU: 1},
			},
			Replications: 4,
			Hyperperiods: hps,
		}
		r, err := Run(sc, 17)
		if err != nil {
			t.Fatal(err)
		}
		if r.EngineSteps == 0 {
			t.Fatalf("H=%d: no engine steps", hps)
		}
		for _, tr := range r.Tasks {
			want := int64(r.Replications*r.Hyperperiods) * r.HyperperiodNs / tr.PeriodNs
			if tr.Arrivals != want {
				t.Errorf("H=%d %s: %d arrivals, want %d", hps, tr.Name, tr.Arrivals, want)
			}
		}
	}
}
