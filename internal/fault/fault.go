// Package fault is a library of composable, seed-deterministic fault
// injectors driven by the simulation engine. Each injector models one
// hostile phenomenon the scheduler must survive — bursty SMI storms, timer
// miscalibration, lost firings, device-interrupt storms, cycle-counter
// re-skew, allocator pressure — and derives all of its randomness from a
// splittable stream, so equal seeds produce bit-identical fault schedules.
// Scenarios (scenario.go) compose injectors with workloads into named,
// replayable chaos runs.
package fault

import (
	"hrtsched/internal/core"
	"hrtsched/internal/machine"
	"hrtsched/internal/sim"
)

// Env is the injection target: the machine whose hardware is perturbed, the
// kernel running on it, and the randomness stream all injector decisions
// must derive from.
type Env struct {
	M   *machine.Machine
	K   *core.Kernel
	Rng *sim.Rand
}

// Injector is one composable fault process. Start arms it; it then drives
// itself from engine events until the simulation ends.
type Injector interface {
	Name() string
	Start(env *Env)
}

// expAfter returns an exponentially distributed delay with the given mean,
// floored at one cycle.
func expAfter(rng *sim.Rand, mean float64) sim.Duration {
	d := sim.Duration(mean * rng.ExpFloat64())
	if d < 1 {
		d = 1
	}
	return d
}

// SMIStorm injects system management interrupts from a Markov-modulated
// arrival process: the firmware alternates between a calm state and a storm
// state with exponentially distributed dwell times, and within each state
// SMIs arrive with that state's exponential inter-arrival gap. This models
// the bursty reality (a thermal event triggering a flurry of SMM entries)
// that a plain Poisson model smooths away.
type SMIStorm struct {
	MeanCalmCycles  float64 // mean dwell in the calm state
	MeanStormCycles float64 // mean dwell in the storm state
	CalmGapCycles   float64 // mean SMI inter-arrival while calm; 0 = none
	StormGapCycles  float64 // mean SMI inter-arrival while storming
	DurationCycles  int64   // SMI duration
	DurationJitter  int64   // uniform +/- jitter on the duration
}

// Name implements Injector.
func (f *SMIStorm) Name() string { return "smi-storm" }

// Start implements Injector.
func (f *SMIStorm) Start(env *Env) {
	r := &smiStormRun{f: f, m: env.M}
	env.Rng.SplitInto(&r.rng)
	r.arm()
	r.flip()
}

// smiStormRun is one started SMIStorm: its stream, the firmware state, and
// the epoch that retires an arrival chain when the state flips. Its events
// carry it as their ref; an arrival's arg is the epoch of its chain.
type smiStormRun struct {
	f     *SMIStorm
	m     *machine.Machine
	rng   sim.Rand
	storm bool
	epoch uint64
}

// arm schedules the next arrival of the current state's chain.
func (r *smiStormRun) arm() {
	gap := r.f.CalmGapCycles
	if r.storm {
		gap = r.f.StormGapCycles
	}
	if gap <= 0 {
		return // no arrivals in this state; the next flip re-arms
	}
	r.m.Eng.AfterPayload(expAfter(&r.rng, gap), sim.Hard, smiStormArrive, r, r.epoch)
}

// flip schedules the next state change.
func (r *smiStormRun) flip() {
	mean := r.f.MeanCalmCycles
	if r.storm {
		mean = r.f.MeanStormCycles
	}
	r.m.Eng.AfterPayload(expAfter(&r.rng, mean), sim.Hard, smiStormFlip, r, 0)
}

func smiStormArrive(_ sim.Time, ref any, epoch uint64) {
	r := ref.(*smiStormRun)
	if epoch != r.epoch {
		return // the state flipped; a fresh arrival chain owns it
	}
	d := r.f.DurationCycles
	if j := r.f.DurationJitter; j > 0 {
		d += r.rng.Range(-j, j)
	}
	if d > 0 {
		r.m.SMI.InjectNow(sim.Duration(d))
	}
	r.arm()
}

func smiStormFlip(_ sim.Time, ref any, _ uint64) {
	r := ref.(*smiStormRun)
	r.storm = !r.storm
	r.epoch++
	r.arm()
	r.flip()
}

// TimerDrift miscalibrates the APIC one-shot timer beyond the conservative
// rounding the scheduler plans for: each programmed countdown is scaled by
// a uniform factor in [1-EarlyFrac, 1+LateFrac], occasionally delayed by a
// fixed extra latency, and occasionally lost outright (the firing never
// delivers — the worst case for a timer-driven scheduler).
type TimerDrift struct {
	CPUs        []int   // nil = every CPU
	EarlyFrac   float64 // max fractional early firing (0.1 = up to 10% early)
	LateFrac    float64 // max fractional late firing
	LoseProb    float64 // probability a firing is swallowed
	DelayProb   float64 // probability of an added fixed delay
	DelayCycles int64   // the added delay
}

// Name implements Injector.
func (f *TimerDrift) Name() string { return "timer-drift" }

// Start implements Injector.
func (f *TimerDrift) Start(env *Env) {
	cpus := f.CPUs
	if cpus == nil {
		for i := 0; i < env.M.NumCPUs(); i++ {
			cpus = append(cpus, i)
		}
	}
	for _, id := range cpus {
		rng := env.Rng.Split()
		env.M.CPU(id).SetTimerFault(func(d int64) (int64, bool) {
			if f.LoseProb > 0 && rng.Float64() < f.LoseProb {
				return 0, false
			}
			if f.EarlyFrac > 0 || f.LateFrac > 0 {
				scale := 1 - f.EarlyFrac + (f.EarlyFrac+f.LateFrac)*rng.Float64()
				d = int64(float64(d) * scale)
			}
			if f.DelayProb > 0 && rng.Float64() < f.DelayProb {
				d += f.DelayCycles
			}
			if d < 1 {
				d = 1
			}
			return d, true
		})
	}
}

// IRQStorm registers a device source and fires Markov-modulated interrupt
// bursts at the CPUs it is steered to — the "interrupt-laden partition
// under attack" case of Section 3.5.
type IRQStorm struct {
	Targets         []int // CPUs to steer bursts at, round-robin; nil = laden default
	HandlerCycles   int64 // advertised bounded handler cost
	MeanCalmCycles  float64
	MeanBurstCycles float64
	BurstGapCycles  float64 // inter-interrupt gap within a burst

	dev *machine.DeviceSource
}

// Name implements Injector.
func (f *IRQStorm) Name() string { return "irq-storm" }

// Device returns the registered source (valid after Start), for tests that
// need ground truth on delivered interrupt counts.
func (f *IRQStorm) Device() *machine.DeviceSource { return f.dev }

// Start implements Injector.
func (f *IRQStorm) Start(env *Env) {
	r := &irqStormRun{f: f, m: env.M}
	env.Rng.SplitInto(&r.rng)
	handler := f.HandlerCycles
	if handler <= 0 {
		handler = 2000
	}
	f.dev = env.M.IRQ.AddDevice("storm-nic", 0, handler) // manual-fire only
	r.flip()
}

// irqStormRun is one started IRQStorm: its stream, the round-robin target
// position, the burst state, and the epoch that retires an arrival chain
// when the state flips. Its events carry it as their ref; an arrival's arg
// is the epoch of its chain.
type irqStormRun struct {
	f        *IRQStorm
	m        *machine.Machine
	rng      sim.Rand
	target   int
	bursting bool
	epoch    uint64
}

// raise fires one interrupt at the next target.
func (r *irqStormRun) raise() {
	f := r.f
	if len(f.Targets) > 0 {
		r.m.IRQ.Steer(f.dev, f.Targets[r.target%len(f.Targets)])
		r.target++
	}
	f.dev.Raise()
}

// arm schedules the next arrival of the current burst's chain.
func (r *irqStormRun) arm() {
	if !r.bursting {
		return
	}
	gap := r.f.BurstGapCycles
	if gap <= 0 {
		gap = 50_000
	}
	r.m.Eng.AfterPayload(expAfter(&r.rng, gap), sim.Hard, irqStormArrive, r, r.epoch)
}

// flip schedules the next state change.
func (r *irqStormRun) flip() {
	mean := r.f.MeanCalmCycles
	if r.bursting {
		mean = r.f.MeanBurstCycles
	}
	r.m.Eng.AfterPayload(expAfter(&r.rng, mean), sim.Hard, irqStormFlip, r, 0)
}

func irqStormArrive(_ sim.Time, ref any, epoch uint64) {
	r := ref.(*irqStormRun)
	if epoch != r.epoch {
		return
	}
	r.raise()
	r.arm()
}

func irqStormFlip(_ sim.Time, ref any, _ uint64) {
	r := ref.(*irqStormRun)
	r.bursting = !r.bursting
	r.epoch++
	r.arm()
	r.flip()
}

// TSCReskew models a calibration regression at runtime: firmware or a deep
// sleep state rewrites a core's cycle counter after boot-time calibration
// already ran, skewing it against the software offset. Positive skews make
// a CPU's clock jump ahead; negative skews make it run visibly backwards —
// which the InvariantChecker's tsc-monotone check is designed to catch.
type TSCReskew struct {
	CPUs          []int   // candidate CPUs; nil = all but CPU 0
	MeanGapCycles float64 // mean time between re-skew events
	MaxSkewCycles int64   // skew magnitude drawn uniformly from [-max, max]
	PositiveOnly  bool    // restrict to forward skews (no monotonicity break)
}

// Name implements Injector.
func (f *TSCReskew) Name() string { return "tsc-reskew" }

// Start implements Injector.
func (f *TSCReskew) Start(env *Env) {
	r := &tscReskewRun{f: f, m: env.M, cpus: f.CPUs}
	env.Rng.SplitInto(&r.rng)
	if r.cpus == nil {
		for i := 1; i < env.M.NumCPUs(); i++ {
			r.cpus = append(r.cpus, i)
		}
	}
	if len(r.cpus) == 0 || f.MaxSkewCycles <= 0 {
		return
	}
	r.tick()
}

// tscReskewRun is one started TSCReskew; its events carry it as their ref.
type tscReskewRun struct {
	f    *TSCReskew
	m    *machine.Machine
	rng  sim.Rand
	cpus []int
}

// tick schedules the next re-skew.
func (r *tscReskewRun) tick() {
	r.m.Eng.AfterPayload(expAfter(&r.rng, r.f.MeanGapCycles), sim.Hard, tscReskewDue, r, 0)
}

func tscReskewDue(_ sim.Time, ref any, _ uint64) {
	r := ref.(*tscReskewRun)
	f := r.f
	id := r.cpus[r.rng.Intn(len(r.cpus))]
	var delta int64
	if f.PositiveOnly {
		delta = r.rng.Range(1, f.MaxSkewCycles)
	} else {
		delta = r.rng.Range(-f.MaxSkewCycles, f.MaxSkewCycles)
	}
	r.m.CPU(id).SkewTSC(delta)
	r.tick()
}

// StackPressure churns the thread stack pool: bursts of short-lived thread
// spawns exercise reap/reanimate under load, and periodic pool drains force
// the allocator slow path — the robustness case for the Section 3.4 pool.
type StackPressure struct {
	MeanGapCycles float64 // mean gap between churn bursts
	Burst         int     // threads spawned per burst
	LifeCycles    int64   // compute each churn thread performs before exit
	DrainEvery    int     // drain the pool every N bursts; 0 = never
}

// Name implements Injector.
func (f *StackPressure) Name() string { return "stack-pressure" }

// Start implements Injector.
func (f *StackPressure) Start(env *Env) {
	r := &stackPressureRun{f: f, m: env.M, k: env.K, burst: f.Burst, life: f.LifeCycles}
	env.Rng.SplitInto(&r.rng)
	if r.burst < 1 {
		r.burst = 4
	}
	if r.life < 1 {
		r.life = 10_000
	}
	r.tick()
}

// stackPressureRun is one started StackPressure; its events carry it as
// their ref.
type stackPressureRun struct {
	f      *StackPressure
	m      *machine.Machine
	k      *core.Kernel
	rng    sim.Rand
	burst  int
	life   int64
	bursts int
}

// tick schedules the next churn burst.
func (r *stackPressureRun) tick() {
	r.m.Eng.AfterPayload(expAfter(&r.rng, r.f.MeanGapCycles), sim.Hard, stackPressureDue, r, 0)
}

func stackPressureDue(_ sim.Time, ref any, _ uint64) {
	r := ref.(*stackPressureRun)
	r.bursts++
	for i := 0; i < r.burst; i++ {
		cpu := r.rng.Intn(r.m.NumCPUs())
		r.k.Spawn("churn", cpu, core.Seq(
			core.Compute{Cycles: r.life},
			core.Exit{},
		))
	}
	if r.f.DrainEvery > 0 && r.bursts%r.f.DrainEvery == 0 {
		r.k.DrainPool()
	}
	r.tick()
}
