// Package machine models the hardware platform the paper's scheduler runs
// on: a shared-memory x64 NUMA node with per-hardware-thread cycle counters,
// APIC one-shot timers, interprocessor interrupts, steerable external
// interrupts, and SMIs. Everything scheduler-visible is modelled at cycle
// resolution on top of the sim event engine.
package machine

import "hrtsched/internal/sim"

// Spec describes a concrete platform. The two presets, PhiKNL and R415,
// correspond to the paper's evaluation testbeds; all cost constants are
// calibrated to the measurements the paper reports (Section 5).
type Spec struct {
	Name    string
	NumCPUs int
	FreqHz  int64 // nominal constant-TSC frequency

	// Boot and time synchronization (Section 3.4).
	BootStaggerCycles   int64 // per-CPU boot start stagger
	BootTSCSpreadCycles int64 // raw pre-calibration TSC offset spread
	TSCWritable         bool  // platform supports writing the cycle counter
	CalibReadErrCycles  int64 // half-width of one cross-CPU offset measurement error
	CalibWriteErrCycles int64 // granularity error of a TSC write-back
	CalibRounds         int   // handshake rounds per CPU during calibration

	// APIC timer (Section 3.3).
	APICTickCycles int64 // one APIC timer tick in cycles
	TSCDeadline    bool  // supports TSC-deadline mode (tick == 1 cycle)

	// Local scheduler invocation cost breakdown, in cycles (Figure 5).
	IRQEntryCycles      int64 // interrupt dispatch, entry/exit
	SchedOtherCycles    int64 // lock, queue maintenance, accounting
	SchedPassCycles     int64 // the scheduling pass itself ("Resched")
	ContextSwitchCycles int64 // register/stack switch
	OverheadJitterPct   int64 // +/- percent run-to-run jitter on the above

	// Interconnect.
	IPILatencyCycles int64 // kick IPI flight time

	// Memory-system costs for the BSP microbenchmark (Section 6.1).
	LocalFlopCycles   int64 // one compute operation on a local element
	RemoteWriteCycles int64 // one write to another CPU's element

	// Kernel barrier costs (Sections 4.3-4.4).
	BarrierBaseCycles    int64 // fixed arrival/exit cost
	BarrierPerCPUCycles  int64 // linear component of the centralized barrier
	ReleaseStaggerCycles int64 // delta: per-thread delay departing a barrier

	// AdmitCostCycles is the cost of one local admission-control run,
	// consumed in the context of the requesting thread (the flat "Local
	// Change Constraints" line of Figure 10(c)).
	AdmitCostCycles int64

	// SMI model (Section 3.6). MeanSMIGapCycles == 0 disables SMIs.
	MeanSMIGapCycles  int64
	SMIDurationCycles int64
	SMIDurationJitter int64 // half-width of uniform jitter on duration
}

// TotalSchedCycles returns the nominal cost of one scheduler invocation:
// interrupt entry, bookkeeping, the scheduling pass, and a context switch.
func (s *Spec) TotalSchedCycles() int64 {
	return s.IRQEntryCycles + s.SchedOtherCycles + s.SchedPassCycles + s.ContextSwitchCycles
}

// WorstSchedCycles returns the most one scheduler invocation can cost:
// the nominal cost, its run-to-run jitter at the top of the band (rounded
// up), and one APIC tick of timer granularity. Admission analysis charges
// this, not the nominal cost, so the jitter OverheadJitter draws can never
// push an admitted job past its deadline.
func (s *Spec) WorstSchedCycles() int64 {
	nominal := s.TotalSchedCycles()
	jitter := (nominal*s.OverheadJitterPct + 99) / 100
	return nominal + jitter + s.APICTickCycles
}

// CyclesToNanos converts cycles to nanoseconds at this platform's frequency.
func (s *Spec) CyclesToNanos(c sim.Time) int64 { return sim.CyclesToNanos(c, s.FreqHz) }

// NanosToCycles converts nanoseconds to cycles, truncating.
func (s *Spec) NanosToCycles(ns int64) sim.Time { return sim.NanosToCycles(ns, s.FreqHz) }

// MicrosToCycles converts microseconds to cycles, truncating.
func (s *Spec) MicrosToCycles(us int64) sim.Time { return s.NanosToCycles(us * 1000) }

// PhiKNL returns the Colfax KNL Ninja testbed: an Intel Xeon Phi 7210 at
// 1.3 GHz with 64 cores x 4 hardware threads = 256 CPUs. The scheduler
// invocation costs reproduce the ~6,000-cycle software overhead of
// Figure 5(a), which places the feasibility edge near a 10 us period
// (Figure 6). Cross-CPU calibration residuals land within ~1,000 cycles
// (Figure 3).
func PhiKNL() Spec {
	return Spec{
		Name:    "phi-knl",
		NumCPUs: 256,
		FreqHz:  1_300_000_000,

		BootStaggerCycles:   2_000_000,
		BootTSCSpreadCycles: 40_000_000,
		TSCWritable:         true,
		CalibReadErrCycles:  700,
		CalibWriteErrCycles: 260,
		CalibRounds:         8,

		APICTickCycles: 32,
		TSCDeadline:    false,

		IRQEntryCycles:      1100,
		SchedOtherCycles:    450,
		SchedPassCycles:     3200,
		ContextSwitchCycles: 1250,
		OverheadJitterPct:   12,

		IPILatencyCycles: 2600,

		LocalFlopCycles:   9,
		RemoteWriteCycles: 240,

		BarrierBaseCycles:    2400,
		BarrierPerCPUCycles:  210,
		ReleaseStaggerCycles: 190,

		AdmitCostCycles: 190_000,

		MeanSMIGapCycles:  0, // SMIs off by default; experiments enable them
		SMIDurationCycles: 160_000,
		SMIDurationJitter: 40_000,
	}
}

// R415 returns the Dell R415 testbed: dual AMD Opteron 4122 at 2.2 GHz,
// 8 CPUs total. Its faster single-thread performance gives roughly half the
// per-invocation cycle cost of the Phi (Figure 5(b)), pushing the
// feasibility edge down to about 4 us (Figure 7).
func R415() Spec {
	return Spec{
		Name:    "r415",
		NumCPUs: 8,
		FreqHz:  2_200_000_000,

		BootStaggerCycles:   1_000_000,
		BootTSCSpreadCycles: 20_000_000,
		TSCWritable:         false, // estimate-and-compensate only
		CalibReadErrCycles:  450,
		CalibWriteErrCycles: 0,
		CalibRounds:         8,

		APICTickCycles: 22,
		TSCDeadline:    false,

		IRQEntryCycles:      520,
		SchedOtherCycles:    210,
		SchedPassCycles:     1300,
		ContextSwitchCycles: 580,
		OverheadJitterPct:   12,

		IPILatencyCycles: 1500,

		LocalFlopCycles:   4,
		RemoteWriteCycles: 130,

		BarrierBaseCycles:    1400,
		BarrierPerCPUCycles:  150,
		ReleaseStaggerCycles: 120,

		AdmitCostCycles: 80_000,

		MeanSMIGapCycles:  0,
		SMIDurationCycles: 220_000,
		SMIDurationJitter: 60_000,
	}
}

// Scaled returns a copy of the spec with the CPU count overridden, for
// quick-preset experiments that exercise the identical code paths at
// reduced scale.
func (s Spec) Scaled(ncpus int) Spec {
	s.NumCPUs = ncpus
	return s
}

// SpecByName resolves a platform preset by its Spec.Name ("phiknl" or
// "r415"). ok is false for unknown names.
func SpecByName(name string) (spec Spec, ok bool) {
	switch name {
	case "phiknl", "":
		return PhiKNL(), true
	case "r415":
		return R415(), true
	default:
		return Spec{}, false
	}
}

// SpecNames lists the platform presets SpecByName accepts, in a fixed
// order suitable for error messages.
func SpecNames() []string { return []string{"phiknl", "r415"} }
