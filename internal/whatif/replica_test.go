package whatif

import (
	"fmt"
	"reflect"
	"testing"

	"hrtsched/internal/core"
	"hrtsched/internal/fault"
	"hrtsched/internal/machine"
	"hrtsched/internal/sim"
	"hrtsched/internal/stats"
	"hrtsched/internal/timesync"
)

// nodeState is everything one replication leaves observable on its
// replica: the outcome and recorder samples the report is built from, and
// the machine, kernel and checker state behind them.
type nodeState struct {
	Out        repOutcome
	Recs       []recState
	Now        sim.Time
	Calib      timesync.Result
	Violations []core.Violation
	Passes     int64
	Ledgers    []core.Ledger
	Sched      []core.SchedStats
	Util       []float64
	CPUs       []cpuState
	Sources    []sourceState
	SMI        smiState
	GPIOEdges  int
	GPIOPins   uint8
	Zones      []zoneState
	Pool       core.PoolStats
	Degrade    core.DegradeStats
	Threads    []threadState
	Live       int
}

type recState struct {
	Hist *stats.Histogram
	Sum  stats.Summary
	Late int64
}

type smiState struct {
	Enabled bool
	Count   int64
	Missing sim.Duration
}

type cpuState struct {
	InterruptFree bool
	TimerArmed    bool
	LostFires     int64
	Pending       int
	TSCOffset     int64
	BootAt        sim.Time
}

type sourceState struct {
	Name          string
	Vector        machine.Vector
	Target        int
	Raised        int64
	MeanGap, Cost int64
}

type zoneState struct {
	Allocs, Frees, Failed int64
	Bytes, Peak           uint64
	Live, Free            int
}

type threadState struct {
	Name         string
	CPU          int
	State        core.ThreadState
	StackAddr    uint64
	SupplyCycles int64
	Switches     int64
}

// snapshot copies everything nodeState holds out of r after a run that
// returned out and recorded into recs.
func snapshot(r *replica, out *repOutcome, recs []*jobRecorder) nodeState {
	st := nodeState{
		Out: repOutcome{
			arrivals:   append([]int64(nil), out.arrivals...),
			misses:     append([]int64(nil), out.misses...),
			maxStreak:  append([]int(nil), out.maxStreak...),
			degrades:   append([]int64(nil), out.degrades...),
			readmits:   append([]int64(nil), out.readmits...),
			steps:      out.steps,
			violations: out.violations,
		},
		Now: r.m.Now(),
		Calib: timesync.Result{
			SoftOffset: append([]int64(nil), r.k.Calib.SoftOffset...),
			Residual:   append([]int64(nil), r.k.Calib.Residual...),
			DoneAt:     r.k.Calib.DoneAt,
			Rounds:     r.k.Calib.Rounds,
		},
		Violations: append([]core.Violation(nil), r.chk.Violations()...),
		Passes:     r.chk.Passes(),
		SMI:        smiState{r.m.SMI.Enabled(), r.m.SMI.Count(), r.m.SMI.TotalMissingTime()},
		GPIOEdges:  len(r.m.GPIO.Edges()),
		GPIOPins:   r.m.GPIO.Pins(),
		Pool:       r.k.PoolStats(),
		Degrade:    r.k.Degradation(),
		Live:       r.k.LiveThreads(),
	}
	for _, rec := range recs {
		st.Recs = append(st.Recs, recState{Hist: rec.hist.Clone(), Sum: rec.sum, Late: rec.late})
	}
	for i, s := range r.k.Locals {
		cpu := r.m.CPU(i)
		st.Ledgers = append(st.Ledgers, s.Ledger())
		st.Sched = append(st.Sched, s.Stats)
		st.Util = append(st.Util, s.PeriodicUtilization())
		st.CPUs = append(st.CPUs, cpuState{
			InterruptFree: r.m.IRQ.InterruptFree(i),
			TimerArmed:    cpu.TimerArmed(),
			LostFires:     cpu.LostTimerFires(),
			Pending:       cpu.PendingCount(),
			TSCOffset:     cpu.TSCOffset(),
			BootAt:        cpu.BootAt(),
		})
	}
	for _, d := range r.m.IRQ.Sources() {
		st.Sources = append(st.Sources, sourceState{d.Name, d.Vector, d.Target(), d.Raised(), d.MeanGapCycles, d.HandlerCycles})
	}
	for _, z := range r.k.Mem.Zones() {
		st.Zones = append(st.Zones, zoneState{z.Allocs, z.Frees, z.FailedAllocs,
			z.BytesAllocated, z.PeakAllocated, z.LiveBlocks(), z.FreeBlocks()})
	}
	for _, t := range r.k.Threads() {
		st.Threads = append(st.Threads, threadState{t.Name(), t.CPU(), t.State(), t.StackAddr(), t.SupplyCycles, t.Switches})
	}
	return st
}

// scribble leaves state on r's node that no fault preset produces today —
// a steered interrupt partition, an autonomous device, a timer fault on
// every CPU, an SMI observer, raised GPIO pins, a reaped stack and a stray
// allocation — so that the reset of each piece is exercised even where
// the presets never dirty it.
func scribble(t *testing.T, r *replica) {
	m, k := r.m, r.k
	n := m.NumCPUs()
	m.IRQ.SetLadenPartition([]int{n - 1})
	m.IRQ.AddDevice("scribble-nic", 200_000, 1_000)
	for i := range n {
		m.CPU(i).SetTimerFault(func(d int64) (int64, bool) { return 2 * d, true })
	}
	m.SMI.Observe(func(sim.Time, sim.Duration) { m.CPU(0).SkewTSC(1) })
	m.GPIO.Write(0xff)
	k.Spawn("scribble", n-1, core.Seq(core.Compute{Cycles: 1_000}, core.Exit{}))
	k.RunNs(500_000)
	if _, err := k.Mem.Zone(0).Alloc(1 << 20); err != nil {
		t.Fatal(err)
	}
}

// replicaCase is one (A, B) pair: B runs on the replica that just ran A
// and on fresh replicas, and must not tell the difference. rewindA and
// rewindB add a rewindTSC fault to that side's replications.
type replicaCase struct {
	a, b             Scenario
	seedA, seedB     uint64
	rewindA, rewindB bool
}

// rewindTSC is a deliberate defect no fault preset produces: 5 ms into
// the replication it sets CPU 0's cycle counter back by 100 000 cycles,
// which the checker's tsc-monotone check reports at the next scheduler
// pass. It gives the checker's recording path a known source of
// violations on fresh and reused replicas alike.
type rewindTSC struct{}

func (rewindTSC) Name() string { return "rewind-tsc" }

func (rewindTSC) Start(env *fault.Env) {
	m := env.M
	m.Eng.After(m.Spec.NanosToCycles(5_000_000), sim.Hard, func(sim.Time) { m.CPU(0).SkewTSC(-100_000) })
}

// caseReplica is newReplica for one side of a case, with the rewindTSC
// fault added when rewind is set.
func caseReplica(node *Node, p prepared, rewind bool, recs []*jobRecorder) *replica {
	r := newReplica(node, p.sc, p.spec, p.model, p.policy, recs)
	if rewind {
		r.injectors = append(r.injectors, rewindTSC{})
	}
	return r
}

// prepared is a normalized scenario ready for replication.
type prepared struct {
	sc         Scenario
	spec       machine.Spec
	model      ExecModel
	policy     core.DegradePolicy
	durationNs int64
}

func prepare(t *testing.T, sc Scenario) prepared {
	t.Helper()
	sc = sc.Normalize()
	if err := sc.Validate(); err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	spec, _ := machine.SpecByName(sc.Machine)
	model, _ := ParseModel(sc.Model)
	policy, _ := degradePolicy(sc.Degrade)
	return prepared{sc, spec.Scaled(sc.CPUs), model, policy, hyperperiodNs(sc.Tasks) * int64(sc.Hyperperiods)}
}

func (p prepared) recorders() []*jobRecorder {
	recs := make([]*jobRecorder, len(p.sc.Tasks))
	for i, task := range p.sc.Tasks {
		recs[i] = &jobRecorder{hist: stats.NewHistogram(0, float64(2*task.PeriodNs), respHistBuckets)}
	}
	return recs
}

// randomScenario draws a scenario whose model family, fault set and
// degrade policy are picked by index i, so consecutive cases cover every
// family, preset and policy; the rest is drawn from rng.
func randomScenario(rng *sim.Rand, i int, name string) Scenario {
	families := []string{"wcet", "full-random", "half-random", "random-0.6,1.3"}
	faultSets := [][]string{nil, {"smi-storm"}, {"smi-drain"}, {"irq-storm"}, {"timer-drift"},
		{"irq-storm", "timer-drift", "smi-storm"}}
	policies := []string{"off", "demote", "shrink", "evict"}
	periodsUs := []int64{100, 200, 250, 500, 1000}

	model := families[i%len(families)]
	if model != "wcet" && rng.Intn(2) == 1 {
		model += ":normal"
	}
	sc := Scenario{
		Name:    name,
		Machine: []string{"phiknl", "r415"}[rng.Intn(2)],
		CPUs:    1 + rng.Intn(4),
		Model:   model,
		Faults:  faultSets[i%len(faultSets)],
		Degrade: policies[i%len(policies)],
	}
	for j := range 1 + rng.Intn(3) {
		p := periodsUs[rng.Intn(len(periodsUs))] * 1000
		slice := p * rng.Range(10, 45) / 100
		sc.Tasks = append(sc.Tasks, Task{
			PeriodNs: p,
			SliceNs:  slice,
			WcetNs:   slice * rng.Range(70, 100) / 100,
			CPU:      j % sc.CPUs,
		})
	}
	// At least 40 ms per replication, so storms and the watchdog fire.
	sc.Hyperperiods = int((40_000_000 + hyperperiodNs(sc.Tasks) - 1) / hyperperiodNs(sc.Tasks))
	sc.Replications = 2
	return sc
}

// seed1093 is a one-CPU scenario whose irq-storm nests device interrupts
// inside pending handler windows, where the checker's conservation check
// can fire; TestConservationUnderFaultSubsets runs its shape under every
// fault subset.
func seed1093() Scenario {
	return Scenario{
		Name:    "seed-1093",
		Machine: "r415",
		CPUs:    1,
		Tasks: []Task{
			{PeriodNs: 100_000, SliceNs: 40_000, WcetNs: 50_000},
			{PeriodNs: 200_000, SliceNs: 50_000, WcetNs: 50_000},
			{PeriodNs: 400_000, SliceNs: 60_000, WcetNs: 50_000},
		},
		Model:        "random-0.6,1.1:normal",
		Faults:       []string{"irq-storm", "timer-drift", "smi-storm"},
		Degrade:      "demote",
		Replications: 4,
		Hyperperiods: 150,
	}
}

func replicaCases() []replicaCase {
	rng := sim.NewRand(0x5eed)
	cases := []replicaCase{
		// A leaves recorded violations behind on the checker ...
		{a: seed1093(), b: randomScenario(rng, 0, "after-1093"), seedA: 1093, seedB: 7, rewindA: true},
		// ... and B records its own on a reused one.
		{a: randomScenario(rng, 1, "before-1093"), b: seed1093(), seedA: 8, seedB: 1093, rewindB: true},
	}
	for i := range 8 {
		c := replicaCase{
			a:     randomScenario(rng, i, fmt.Sprintf("a%d", i)),
			b:     randomScenario(rng, i+3, fmt.Sprintf("b%d", i)),
			seedA: rng.Uint64(),
			seedB: rng.Uint64(),
		}
		if i%2 == 0 {
			c.b.CPUs = c.a.CPUs // same CPU count: every scheduler reused
			for j := range c.b.Tasks {
				c.b.Tasks[j].CPU = j % c.b.CPUs
			}
		} else if c.b.CPUs == c.a.CPUs {
			c.b.CPUs = c.a.CPUs%4 + 1 // a different CPU count
			for j := range c.b.Tasks {
				c.b.Tasks[j].CPU = j % c.b.CPUs
			}
		}
		cases = append(cases, c)
	}
	return cases
}

// TestReplicaRebootMatchesFreshBoot: a replica re-booted in place under a
// new seed — after any scenario, on either machine preset, with any CPU
// count, model, fault mix and degrade policy — simulates exactly what a
// freshly built machine, kernel and checker simulate. B's replications run
// one after another on B's replica, which takes over the machine, kernel
// and checker that just ran A's (and were scribbled on), and each again on
// a replica of its own; every outcome, recorder sample, engine step,
// per-CPU ledger, calibration result, checker violation and the machine
// and kernel state behind them must match.
func TestReplicaRebootMatchesFreshBoot(t *testing.T) {
	// seen tallies what the fresh replications exercised, so the
	// equalities below cannot pass vacuously.
	var seen struct{ smis, irqs, lostFires, degrades, violations int64 }
	for _, c := range replicaCases() {
		a, b := prepare(t, c.a), prepare(t, c.b)
		name := fmt.Sprintf("%s(%s,%dcpu)->%s(%s,%dcpu)", a.sc.Name, a.sc.Machine, a.sc.CPUs,
			b.sc.Name, b.sc.Machine, b.sc.CPUs)
		t.Run(name, func(t *testing.T) {
			node := caseReplica(new(Node), a, c.rewindA, a.recorders())
			seeds := sim.NewRand(c.seedA)
			for range a.sc.Replications {
				node.run(seeds.Uint64(), a.durationNs)
			}
			scribble(t, node)

			reused := caseReplica(node.Node, b, c.rewindB, b.recorders())
			seeds = sim.NewRand(c.seedB)
			for rep := range b.sc.Replications {
				seed := seeds.Uint64()

				// Fresh recorders per replication, so each side's samples
				// are this replication's alone.
				reusedRecs := b.recorders()
				for i, j := range reused.jobs {
					j.rec = reusedRecs[i]
				}
				got := snapshot(reused, reused.run(seed, b.durationNs), reusedRecs)

				freshRecs := b.recorders()
				fresh := caseReplica(new(Node), b, c.rewindB, freshRecs)
				want := snapshot(fresh, fresh.run(seed, b.durationNs), freshRecs)

				if want.Out.steps == 0 {
					t.Fatalf("rep %d: no engine steps", rep)
				}
				seen.smis += want.SMI.Count
				for _, src := range want.Sources {
					seen.irqs += src.Raised
				}
				for _, cpu := range want.CPUs {
					seen.lostFires += cpu.LostFires
				}
				seen.degrades += want.Degrade.Sheds
				seen.violations += int64(len(want.Violations))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("rep %d (seed %d): reused replica diverges from a fresh one\n%s",
						rep, seed, diffState(got, want))
				}
			}
		})
	}
	if seen.smis == 0 || seen.irqs == 0 || seen.lostFires == 0 || seen.degrades == 0 || seen.violations == 0 {
		t.Fatalf("the cases exercised too little: %+v", seen)
	}
	t.Logf("exercised %+v", seen)
}

// diffState names the nodeState fields that differ.
func diffState(got, want nodeState) string {
	var out string
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := range gv.NumField() {
		f := gv.Type().Field(i).Name
		if g, w := gv.Field(i), wv.Field(i); !reflect.DeepEqual(g.Interface(), w.Interface()) {
			out += fmt.Sprintf("  %s:\n    reused %+v\n    fresh  %+v\n", f, g.Interface(), w.Interface())
		}
	}
	return out
}
