package whatif

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"hrtsched/internal/core"
	"hrtsched/internal/fault"
	"hrtsched/internal/machine"
	"hrtsched/internal/plan"
	"hrtsched/internal/sim"
	"hrtsched/internal/stats"
)

// Limits on scenario size: one request must stay a bounded unit of work so
// the serving pool's shed arithmetic means something.
const (
	MaxTasks        = 64
	MaxReplications = 10_000
	MaxHyperperiods = 1_000
	// maxHyperperiodNs rejects task sets whose period LCM makes a single
	// replication unboundedly long. Admission needs no hyperperiod; a
	// replication runs whole ones.
	maxHyperperiodNs = 10_000_000_000 // 10 s simulated
	respHistBuckets  = 40
)

// Task is one periodic task of a scenario. SliceNs is the reserved
// budget the admission analysis sees; WcetNs is the nominal worst-case
// compute the execution model draws each job's actual cost against. It
// defaults to SliceNs — a zero-margin reservation where even the wcet
// model finishes a hair past its deadline (the record step lands after
// the compute exhausts the slice). Set WcetNs below SliceNs to model a
// real admission pipeline that reserves WCET plus headroom.
type Task struct {
	Name     string `json:"name,omitempty"`
	PeriodNs int64  `json:"period_ns"`
	SliceNs  int64  `json:"slice_ns"`
	WcetNs   int64  `json:"wcet_ns,omitempty"`
	PhaseNs  int64  `json:"phase_ns,omitempty"`
	CPU      int    `json:"cpu,omitempty"`
}

// Scenario is one what-if question. The zero values of the optional
// fields select the defaults applied by Normalize.
type Scenario struct {
	Name    string   `json:"name,omitempty"`
	Machine string   `json:"machine,omitempty"` // platform preset; default phiknl
	CPUs    int      `json:"cpus,omitempty"`    // scaled CPU count; default 2
	Tasks   []Task   `json:"tasks"`
	Model   string   `json:"model,omitempty"`   // execution model; default wcet
	Faults  []string `json:"faults,omitempty"`  // fault.Presets names, applied in order
	Degrade string   `json:"degrade,omitempty"` // off|demote|shrink|evict; default off
	// Replications is the number of independently seeded runs; default 20.
	Replications int `json:"replications,omitempty"`
	// Hyperperiods is the simulated length of each replication in task-set
	// hyperperiods; default 1.
	Hyperperiods int `json:"hyperperiods,omitempty"`
	// UtilizationLimit is the admission cap used for the analytical
	// verdict; default 0.99 (the paper's configuration).
	UtilizationLimit float64 `json:"utilization_limit,omitempty"`
}

// Normalize returns a copy with defaults applied. The copy has its own
// Tasks, so the caller's scenario is left as it was.
func (sc Scenario) Normalize() Scenario {
	sc.Tasks = slices.Clone(sc.Tasks)
	if sc.Machine == "" {
		sc.Machine = "phiknl"
	}
	if sc.CPUs <= 0 {
		sc.CPUs = 2
	}
	if sc.Model == "" {
		sc.Model = "wcet"
	}
	if sc.Degrade == "" {
		sc.Degrade = "off"
	}
	if sc.Replications <= 0 {
		sc.Replications = 20
	}
	if sc.Hyperperiods <= 0 {
		sc.Hyperperiods = 1
	}
	if sc.UtilizationLimit <= 0 {
		sc.UtilizationLimit = 0.99
	}
	for i := range sc.Tasks {
		if sc.Tasks[i].Name == "" {
			sc.Tasks[i].Name = fmt.Sprintf("task%d", i)
		}
		if sc.Tasks[i].WcetNs <= 0 {
			sc.Tasks[i].WcetNs = sc.Tasks[i].SliceNs
		}
	}
	return sc
}

// degradePolicy maps the textual policy names.
func degradePolicy(s string) (core.DegradePolicy, error) {
	switch s {
	case "off", "":
		return core.DegradeOff, nil
	case "demote":
		return core.DegradeDemote, nil
	case "shrink":
		return core.DegradeShrink, nil
	case "evict":
		return core.DegradeEvict, nil
	default:
		return 0, fmt.Errorf("whatif: unknown degrade policy %q (want off, demote, shrink, or evict)", s)
	}
}

// Validate checks a normalized scenario without running it.
func (sc Scenario) Validate() error {
	spec, ok := machine.SpecByName(sc.Machine)
	if !ok {
		return fmt.Errorf("whatif: unknown machine %q (want %s)",
			sc.Machine, strings.Join(machine.SpecNames(), ", "))
	}
	if sc.CPUs > spec.NumCPUs {
		return fmt.Errorf("whatif: %d cpus exceeds machine %s's %d", sc.CPUs, sc.Machine, spec.NumCPUs)
	}
	if len(sc.Tasks) == 0 {
		return fmt.Errorf("whatif: scenario has no tasks")
	}
	if len(sc.Tasks) > MaxTasks {
		return fmt.Errorf("whatif: %d tasks exceeds limit %d", len(sc.Tasks), MaxTasks)
	}
	if sc.Replications > MaxReplications {
		return fmt.Errorf("whatif: %d replications exceeds limit %d", sc.Replications, MaxReplications)
	}
	if sc.Hyperperiods > MaxHyperperiods {
		return fmt.Errorf("whatif: %d hyperperiods exceeds limit %d", sc.Hyperperiods, MaxHyperperiods)
	}
	if _, err := ParseModel(sc.Model); err != nil {
		return err
	}
	if _, err := degradePolicy(sc.Degrade); err != nil {
		return err
	}
	for _, f := range sc.Faults {
		if _, ok := fault.Presets[f]; !ok {
			return fmt.Errorf("whatif: unknown fault preset %q (want %s)",
				f, strings.Join(fault.PresetNames(), ", "))
		}
	}
	for i, t := range sc.Tasks {
		if t.PeriodNs <= 0 || t.SliceNs <= 0 || t.SliceNs > t.PeriodNs {
			return fmt.Errorf("whatif: task %d: want 0 < slice_ns <= period_ns", i)
		}
		// WcetNs above PeriodNs would make even a dedicated CPU insufficient;
		// above SliceNs is allowed (deliberate under-reservation).
		if t.WcetNs < 0 || t.WcetNs > t.PeriodNs {
			return fmt.Errorf("whatif: task %d: want 0 <= wcet_ns <= period_ns", i)
		}
		if t.PhaseNs < 0 || t.PhaseNs >= t.PeriodNs {
			return fmt.Errorf("whatif: task %d: want 0 <= phase_ns < period_ns", i)
		}
		if t.CPU < 0 || t.CPU >= sc.CPUs {
			return fmt.Errorf("whatif: task %d: cpu %d outside [0, %d)", i, t.CPU, sc.CPUs)
		}
	}
	if hp := hyperperiodNs(sc.Tasks); hp <= 0 || hp > maxHyperperiodNs {
		return fmt.Errorf("whatif: task-set hyperperiod exceeds %d ns", int64(maxHyperperiodNs))
	}
	return nil
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// hyperperiodNs returns the LCM of the task periods, or 0 on overflow.
func hyperperiodNs(tasks []Task) int64 {
	h := int64(1)
	for _, t := range tasks {
		g := gcd64(h, t.PeriodNs)
		if g == 0 {
			return 0
		}
		q := h / g
		if t.PeriodNs != 0 && q > maxHyperperiodNs/t.PeriodNs {
			return 0
		}
		h = q * t.PeriodNs
	}
	return h
}

// repOutcome collects one replication's observations.
type repOutcome struct {
	arrivals, misses []int64
	maxStreak        []int
	degrades         []int64
	readmits         []int64
	steps            uint64
	violations       int
}

// jobRecorder is the per-task observation sink shared between the job
// program and the replication driver.
type jobRecorder struct {
	hist *stats.Histogram
	sum  stats.Summary
	// late counts jobs that completed after their deadline. The scheduler's
	// Misses counter only fires when the reserved slice goes unserved
	// (supply-side overload); a job whose drawn cost exceeds its budget
	// still gets its full reservation every period and finishes late
	// without a scheduler miss — the demand-side overrun only the
	// observation layer can see.
	late int64
}

// job is the canonical what-if workload: per period, draw the job's cost
// from the execution model, compute it, record the observed response
// time, and sleep until the next arrival. Overrun periods are abandoned —
// the scheduler has already rolled the arrivals forward and counted the
// misses; the program just resynchronizes to the next future boundary.
// A replica keeps one job per task and restarts it for each replication.
// Its Compute and SleepUntil are handed over by pointer, rewritten for
// each period, so a period boxes no action.
type job struct {
	cons       core.Constraints
	admit      core.Action // ChangeConstraints{C: cons}
	record     core.Action // Call of recordResponse
	compute    core.Compute
	sleep      core.SleepUntil
	wcetCycles int64
	model      ExecModel
	rng        sim.Rand
	rec        *jobRecorder
	state      int
	arrivalNs  int64
}

const (
	jobAdmit = iota
	jobCompute
	jobRecord
	jobSleep
)

func newJob(cons core.Constraints, wcetCycles int64, model ExecModel, rec *jobRecorder) *job {
	j := &job{cons: cons, admit: core.ChangeConstraints{C: cons}, wcetCycles: wcetCycles, model: model, rec: rec}
	j.record = core.Call{Fn: j.recordResponse}
	return j
}

// Next implements core.Program.
func (j *job) Next(tc *core.ThreadCtx) core.Action {
	switch j.state {
	case jobAdmit:
		j.state = jobCompute
		return j.admit
	case jobCompute:
		j.arrivalNs = tc.T.ArrivalNs()
		j.state = jobRecord
		j.compute.Cycles = j.model.Draw(&j.rng, j.wcetCycles)
		return &j.compute
	case jobRecord:
		j.state = jobSleep
		return j.record
	default:
		j.state = jobCompute
		// The task's schedule is anchored at its admission time Gamma,
		// not at absolute zero, so the next arrival boundary is the
		// scheduler's current deadline — never recompute it as k*P.
		// After an overrun the scheduler has already rolled arrival and
		// deadline forward (counting the misses), so the deadline is
		// still the first boundary strictly after now.
		j.sleep.WallNs = tc.T.DeadlineNs()
		return &j.sleep
	}
}

func (j *job) recordResponse(tc *core.ThreadCtx) {
	resp := tc.NowNs - j.arrivalNs
	j.rec.hist.Add(float64(resp))
	j.rec.sum.Add(float64(resp))
	if resp > j.cons.PeriodNs {
		j.rec.late++
	}
}

// Node is a simulated machine, kernel and invariant checker that outlive
// one Run. Its first replication builds them; every later one — of the
// same request or of the next one, on any preset, CPU count, model, fault
// mix or degrade policy — re-boots them in place under its own seed
// (machine.Reset, core.Kernel.Reboot, core.InvariantChecker.Reattach).
// Only storage carries over: every random draw happens in the order a
// fresh boot makes it, so a report does not depend on what ran on the
// node before it. The zero Node is ready to use; a Node must not run two
// scenarios at once.
type Node struct {
	m   *machine.Machine
	k   *core.Kernel
	chk *core.InvariantChecker
}

// replica is one scenario's replications on a Node: the jobs, the fault
// injectors, the outcome slices and the hooks, reset for every
// replication.
type replica struct {
	sc      Scenario
	spec    machine.Spec
	cfg     core.Config
	caption string // the checker's repro-line scenario name

	*Node
	env       fault.Env
	envRng    sim.Rand
	injectors []fault.Injector
	jobs      []*job
	threads   []*core.Thread
	hooks     core.Hooks
	out       repOutcome
}

// newReplica prepares the replications of sc on spec, run on node. recs[i]
// collects task i's response times across every replication.
func newReplica(node *Node, sc Scenario, spec machine.Spec, model ExecModel, policy core.DegradePolicy, recs []*jobRecorder) *replica {
	cfg := core.DefaultConfig(spec)
	// Admission is judged analytically by plan.Analyze; the engine runs
	// every task so rejected sets still produce observations (that is the
	// disagreement report's whole point).
	cfg.Admit = core.AdmitNone
	if policy != core.DegradeOff {
		cfg.Degrade = core.DegradeConfig{Policy: policy, MissStreak: 3}
	}
	// A lost one-shot firing under timer-drift otherwise bricks the CPU
	// for the rest of the replication.
	cfg.WatchdogNs = 10_000_000
	n := len(sc.Tasks)
	r := &replica{
		sc:      sc,
		spec:    spec,
		cfg:     cfg,
		caption: "whatif:" + sc.Name,
		Node:    node,
		jobs:    make([]*job, n),
		threads: make([]*core.Thread, n),
		out: repOutcome{
			arrivals:  make([]int64, n),
			misses:    make([]int64, n),
			maxStreak: make([]int, n),
			degrades:  make([]int64, n),
			readmits:  make([]int64, n),
		},
	}
	for i, task := range sc.Tasks {
		cons := core.PeriodicConstraints(task.PhaseNs, task.PeriodNs, task.SliceNs)
		wcet := int64(spec.NanosToCycles(task.WcetNs))
		if wcet < 1 {
			wcet = 1
		}
		r.jobs[i] = newJob(cons, wcet, model, recs[i])
	}
	for _, name := range sc.Faults {
		r.injectors = append(r.injectors, fault.Presets[name](spec)...)
	}
	r.hooks = core.Hooks{Miss: r.onMiss, Degrade: r.onDegrade, Readmit: r.onReadmit}
	return r
}

// task returns the scenario index of t, or false for a thread that is
// not one of the scenario's tasks.
func (r *replica) task(t *core.Thread) (int, bool) {
	i := t.ID()
	return i, i < len(r.threads) && r.threads[i] == t
}

func (r *replica) onMiss(cpu int, t *core.Thread, nowNs, missNs int64) {
	if i, ok := r.task(t); ok {
		if s := t.MissStreak(); s > r.out.maxStreak[i] {
			r.out.maxStreak[i] = s
		}
	}
}

func (r *replica) onDegrade(cpu int, t *core.Thread, ev core.DegradeEvent) {
	if i, ok := r.task(t); ok {
		r.out.degrades[i]++
	}
}

func (r *replica) onReadmit(cpu int, t *core.Thread, nowNs int64) {
	if i, ok := r.task(t); ok {
		r.out.readmits[i]++
	}
}

// run executes one seeded replication and returns its observations, which
// stay valid until the next run. All randomness derives from the machine's
// seed in a fixed construction order: kernel boot, per-task model streams
// (in task order), then the fault environment. The simulated window is
// durationNs long and starts where boot calibration left the clock, at
// the instant the task threads are spawned.
func (r *replica) run(seed uint64, durationNs int64) *repOutcome {
	if r.m == nil {
		r.m = machine.New(r.spec, seed)
		r.k = core.Boot(r.m, r.cfg)
		r.chk = core.AttachInvariants(r.k, seed, r.caption)
	} else {
		r.m.Reset(r.spec, seed)
		r.k.Reboot(r.m, r.cfg)
		r.chk.Reattach(r.k, seed, r.caption)
	}
	out := &r.out
	clear(out.maxStreak)
	clear(out.degrades)
	clear(out.readmits)

	for i, task := range r.sc.Tasks {
		j := r.jobs[i]
		j.state, j.arrivalNs = jobAdmit, 0
		r.m.RandInto(&j.rng)
		r.threads[i] = r.k.Spawn(task.Name, task.CPU, j)
	}
	r.k.Hooks.Miss = r.hooks.Miss
	r.k.Hooks.Degrade = r.hooks.Degrade
	r.k.Hooks.Readmit = r.hooks.Readmit

	r.m.RandInto(&r.envRng)
	r.env = fault.Env{M: r.m, K: r.k, Rng: &r.envRng}
	for _, inj := range r.injectors {
		inj.Start(&r.env)
	}

	r.k.RunNs(durationNs)

	for i, t := range r.threads {
		out.arrivals[i] = t.Arrivals
		out.misses[i] = t.Misses
	}
	out.steps = r.k.Eng.Steps()
	out.violations = len(r.chk.Violations())
	return out
}

// Run executes the scenario's replications on a node of their own and
// aggregates the Report.
func Run(sc Scenario, seed uint64) (*Report, error) {
	return new(Node).Run(sc, seed)
}

// Run executes the scenario's replications on n and aggregates the
// Report. Replication r re-boots n under the r-th draw of a root stream
// over seed, so reports are reproducible per (scenario, seed), whatever
// n ran before, and replications are statistically independent.
func (n *Node) Run(sc Scenario, seed uint64) (*Report, error) {
	sc = sc.Normalize()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	spec, _ := machine.SpecByName(sc.Machine)
	spec = spec.Scaled(sc.CPUs)
	model, _ := ParseModel(sc.Model)
	policy, _ := degradePolicy(sc.Degrade)

	hp := hyperperiodNs(sc.Tasks)
	durationNs := hp * int64(sc.Hyperperiods)

	recs := make([]*jobRecorder, len(sc.Tasks))
	for i, t := range sc.Tasks {
		recs[i] = &jobRecorder{hist: stats.NewHistogram(0, float64(2*t.PeriodNs), respHistBuckets)}
	}

	rep := &Report{
		Scenario:      sc.Name,
		Machine:       sc.Machine,
		CPUs:          sc.CPUs,
		Model:         model.String(),
		Faults:        sc.Faults,
		Degrade:       sc.Degrade,
		Seed:          seed,
		Replications:  sc.Replications,
		Hyperperiods:  sc.Hyperperiods,
		HyperperiodNs: hp,
	}
	rep.analyze(sc, plan.SpecFor(spec, sc.UtilizationLimit))

	agg := repOutcome{
		arrivals:  make([]int64, len(sc.Tasks)),
		misses:    make([]int64, len(sc.Tasks)),
		maxStreak: make([]int, len(sc.Tasks)),
		degrades:  make([]int64, len(sc.Tasks)),
		readmits:  make([]int64, len(sc.Tasks)),
	}
	seeds := sim.NewRand(seed)
	lateBefore := make([]int64, len(sc.Tasks))
	r := newReplica(n, sc, spec, model, policy, recs)
	for range sc.Replications {
		for i := range recs {
			lateBefore[i] = recs[i].late
		}
		out := r.run(seeds.Uint64(), durationNs)
		// A replication "misses" if any reserved slice went unserved
		// (scheduler miss) or any job completed past its deadline (late
		// job); survival demands neither.
		repBad := int64(0)
		for i := range sc.Tasks {
			agg.arrivals[i] += out.arrivals[i]
			agg.misses[i] += out.misses[i]
			repBad += out.misses[i] + (recs[i].late - lateBefore[i])
			if out.maxStreak[i] > agg.maxStreak[i] {
				agg.maxStreak[i] = out.maxStreak[i]
			}
			agg.degrades[i] += out.degrades[i]
			agg.readmits[i] += out.readmits[i]
		}
		agg.steps += out.steps
		agg.violations += out.violations
		if repBad == 0 {
			rep.SurvivedReps++
			if !rep.Admit {
				rep.Disagreement.RejectedCleanReps++
			}
		} else if rep.Admit {
			rep.Disagreement.AdmittedMissedReps++
		}
	}

	rep.SurvivalProb = float64(rep.SurvivedReps) / float64(sc.Replications)
	rep.EngineSteps = agg.steps
	rep.InvariantViolations = agg.violations
	rep.Tasks = make([]TaskReport, len(sc.Tasks))
	for i, t := range sc.Tasks {
		tr := TaskReport{
			Name:          t.Name,
			PeriodNs:      t.PeriodNs,
			SliceNs:       t.SliceNs,
			WcetNs:        t.WcetNs,
			Arrivals:      agg.arrivals[i],
			Misses:        agg.misses[i],
			LateJobs:      recs[i].late,
			MaxMissStreak: agg.maxStreak[i],
			Degrades:      agg.degrades[i],
			Readmits:      agg.readmits[i],
			RespHist:      recs[i].hist,
		}
		if agg.arrivals[i] > 0 {
			tr.MissRate = float64(agg.misses[i]) / float64(agg.arrivals[i])
		}
		if recs[i].hist.N() > 0 {
			tr.RespP50Ns = recs[i].hist.Quantile(0.50)
			tr.RespP99Ns = recs[i].hist.Quantile(0.99)
			tr.RespMeanNs = recs[i].sum.Mean()
			tr.RespMaxNs = recs[i].sum.Max()
		}
		rep.TotalMisses += agg.misses[i]
		rep.TotalLateJobs += recs[i].late
		rep.Tasks[i] = tr
	}
	return rep, nil
}

// analyze fills in the report's analytical verdict for sc under spec, the
// way the kernel admits: each CPU's partition is analyzed on its own, and
// the verdicts are ANDed.
func (r *Report) analyze(sc Scenario, spec plan.Spec) {
	r.Admit, r.AdmitReason = true, plan.OK.String()
	r.CPUUtilization = make([]float64, sc.CPUs)
	var set plan.TaskSet
	for cpu := range sc.CPUs {
		set = set[:0]
		for _, t := range sc.Tasks {
			if t.CPU == cpu {
				set = append(set, plan.Task{PeriodNs: t.PeriodNs, SliceNs: t.SliceNs})
			}
		}
		if len(set) == 0 {
			continue
		}
		v := plan.Analyze(spec, set)
		r.CPUUtilization[cpu] = v.Utilization
		r.Utilization += v.Utilization
		if r.Admit && !v.Admit {
			r.Admit, r.AdmitReason = false, v.Reason.String()
		}
	}
}

// FaultNames returns the accepted fault preset names in stable order —
// a convenience re-export so CLI layers need not import internal/fault.
func FaultNames() []string {
	names := fault.PresetNames()
	sort.Strings(names)
	return names
}
