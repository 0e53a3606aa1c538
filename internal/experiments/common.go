// Package experiments contains one harness per table/figure of the paper's
// evaluation (Figures 3-16) plus the ablation studies called out in
// DESIGN.md. Each harness builds the workload, runs it on the simulated
// platform, and returns a stats.Figure whose rows/series mirror what the
// paper reports. Absolute values are simulated-platform cycles/seconds;
// the reproduction target is the shape (see EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"hrtsched/internal/core"
	"hrtsched/internal/machine"
	"hrtsched/internal/stats"
)

// Scale selects experiment size.
type Scale int

const (
	// Quick runs a reduced parameter grid sized for tests and CI. It
	// exercises the identical code paths as Full.
	Quick Scale = iota
	// Full runs at (or near) the paper's scale: 255-thread groups on the
	// 256-CPU Phi, full parameter sweeps.
	Full
)

// Options configures a harness run.
type Options struct {
	Scale   Scale
	Seed    uint64
	Workers int // parallel independent simulations; 0 = GOMAXPROCS
}

// DefaultOptions returns Quick options with a fixed seed.
func DefaultOptions() Options { return Options{Scale: Quick, Seed: 0x5eed} }

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// comboSeed derives a per-combination seed so results are independent of
// worker scheduling.
func (o Options) comboSeed(i int) uint64 {
	x := o.Seed + 0x9e3779b97f4a7c15*uint64(i+1)
	x ^= x >> 29
	return x*0xbf58476d1ce4e5b9 + 1
}

// parallelMap runs fn(i) for i in [0, n) on a bounded worker pool. Each
// call must be independent (its own machine/kernel).
func parallelMap(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// bootPhi boots a Phi kernel with ncpus CPUs.
func bootPhi(ncpus int, seed uint64, mutate func(*core.Config)) *core.Kernel {
	spec := machine.PhiKNL()
	if ncpus > 0 {
		spec = spec.Scaled(ncpus)
	}
	m := machine.New(spec, seed)
	cfg := core.DefaultConfig(spec)
	if mutate != nil {
		mutate(&cfg)
	}
	return core.Boot(m, cfg)
}

// bootR415 boots an R415 kernel.
func bootR415(seed uint64, mutate func(*core.Config)) *core.Kernel {
	spec := machine.R415()
	m := machine.New(spec, seed)
	cfg := core.DefaultConfig(spec)
	if mutate != nil {
		mutate(&cfg)
	}
	return core.Boot(m, cfg)
}

// spinProgram returns a CPU-bound program in fixed-size chunks.
func spinProgram(chunk int64) core.Program {
	return core.ProgramFunc(func(tc *core.ThreadCtx) core.Action {
		return core.Compute{Cycles: chunk}
	})
}

// periodicSpin admits the thread with the given periodic constraints and
// then spins forever.
func periodicSpin(cons core.Constraints, chunk int64) core.Program {
	admitted := false
	return core.ProgramFunc(func(tc *core.ThreadCtx) core.Action {
		if !admitted {
			admitted = true
			return core.ChangeConstraints{C: cons}
		}
		return core.Compute{Cycles: chunk}
	})
}

// missRun measures miss behaviour of one periodic thread with the given
// constraints on a single-CPU Phi or R415 with admission disabled, over
// runNs of simulated time.
type missResult struct {
	Arrivals   int64
	Misses     int64
	MissNsMean float64
	MissNsStd  float64
}

func missRun(phi bool, seed uint64, periodNs, sliceNs, runNs int64) missResult {
	var k *core.Kernel
	off := func(c *core.Config) { c.Admit = core.AdmitNone }
	if phi {
		k = bootPhi(1, seed, off)
	} else {
		spec := machine.R415().Scaled(1)
		m := machine.New(spec, seed)
		cfg := core.DefaultConfig(spec)
		off(&cfg)
		k = core.Boot(m, cfg)
	}
	th := k.Spawn("rt", 0, periodicSpin(
		core.PeriodicConstraints(0, periodNs, sliceNs), 50_000))
	k.RunNs(runNs)
	return missResult{
		Arrivals:   th.Arrivals,
		Misses:     th.Misses,
		MissNsMean: th.MissTimeNs.Mean(),
		MissNsStd:  th.MissTimeNs.Std(),
	}
}

// Registry maps experiment ids to harness functions.
var Registry = map[string]func(Options) *stats.Figure{
	"fig3":  Fig3,
	"fig4":  Fig4,
	"fig5":  Fig5,
	"fig6":  Fig6,
	"fig7":  Fig7,
	"fig8":  Fig8,
	"fig9":  Fig9,
	"fig10": Fig10,
	"fig11": Fig11,
	"fig12": Fig12,
	"fig13": Fig13,
	"fig14": Fig14,
	"fig15": Fig15,
	"fig16": Fig16,

	"ext-cyclic":    ExtCyclic,
	"ext-omp":       ExtOMP,
	"ext-isolation": ExtIsolation,

	"ablation-eager":    AblationEagerVsLazy,
	"ablation-phase":    AblationPhaseCorrection,
	"ablation-rm":       AblationRMvsEDF,
	"ablation-steering": AblationInterruptSteering,
	"ablation-admitsim": AblationAdmitSim,
	"ablation-steal":    AblationStealPolicy,

	"fault-smi-storm":     FaultSMIStorm,
	"fault-irq-storm":     FaultIRQStorm,
	"fault-drift":         FaultDrift,
	"fault-overload-shed": FaultOverloadShed,
}

// Run dispatches an experiment by id.
func Run(id string, o Options) (*stats.Figure, error) {
	fn, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	return fn(o), nil
}

// IDs returns the registered experiment ids in a stable order.
func IDs() []string {
	ids := []string{
		"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"ablation-eager", "ablation-phase", "ablation-rm",
		"ablation-steering", "ablation-steal", "ablation-admitsim",
		"ext-cyclic", "ext-omp", "ext-isolation",
		"fault-smi-storm", "fault-irq-storm", "fault-drift",
		"fault-overload-shed",
	}
	return ids
}

// Block renders fig as one block of the committed quick-scale artifact
// (results/quick.txt, regenerated by `make experiments`): the formatted
// series and notes, then a digest line that pins every value bit for bit.
func Block(fig *stats.Figure) string {
	return fig.Format() + "digest: " + fig.Digest() + "\n"
}
