package core

import (
	"fmt"

	"hrtsched/internal/machine"
	"hrtsched/internal/plan"
	"hrtsched/internal/sim"
)

// EDFMode selects the context-switch eagerness of the local scheduler.
type EDFMode uint8

const (
	// EagerEDF never delays switching to a runnable real-time thread.
	// This is the paper's choice: starting early means ending early even
	// when SMI "missing time" intrudes (Section 3.6).
	EagerEDF EDFMode = iota
	// LazyEDF delays the switch to a newly arrived thread until the last
	// moment at which its deadline can still be met — the classic
	// non-work-conserving behaviour the paper argues against. Provided for
	// the ablation benchmark.
	LazyEDF
)

// AdmitPolicy selects the classic single-CPU admission test (Section 3.2).
type AdmitPolicy uint8

const (
	// AdmitEDF uses the EDF utilization bound: total RT utilization <= cap.
	AdmitEDF AdmitPolicy = iota
	// AdmitRM uses the rate-monotonic Liu & Layland bound n(2^(1/n)-1).
	AdmitRM
	// AdmitNone disables admission control; any structurally valid
	// constraint is accepted. Figures 6-9 use this to study infeasible
	// constraints.
	AdmitNone
	// AdmitSim admits periodic threads by simulating the local scheduler
	// over one hyperperiod, charging scheduler overhead — the prototype
	// Section 3.2 describes. It rejects fine-grain sets that pass the
	// utilization bound but are infeasible on the platform.
	AdmitSim
)

// StealPolicy selects the work-stealing victim choice (Section 3.4).
type StealPolicy uint8

const (
	// StealPowerOfTwo picks two random victims and steals from the one
	// with more stealable work (Mitzenmacher), avoiding global
	// coordination.
	StealPowerOfTwo StealPolicy = iota
	// StealLinear scans CPUs in order from the thief. For the ablation.
	StealLinear
	// StealOff disables work stealing.
	StealOff
)

// Config is the boot-time configuration of every local scheduler. The
// defaults mirror the paper's evaluation configuration: "99% utilization
// limit, 10% sporadic reservation, 10% aperiodic reservation", round-robin
// aperiodic scheduling on a 10 Hz timer. The aperiodic reservation has no
// field: nothing admits against it, since the scheduler is
// work-conserving and unreserved time flows to whoever is runnable.
type Config struct {
	// UtilizationLimit leaves headroom for the scheduler's own invocations
	// and, if need be, interrupts and SMIs. Fraction of 1.0.
	UtilizationLimit float64
	// SporadicReservation is the utilization fraction reserved for
	// spontaneously arriving sporadic threads.
	SporadicReservation float64
	// AperiodicQuantumNs is the round-robin quantum for aperiodic threads
	// (the paper's 10 Hz timer => 100 ms).
	AperiodicQuantumNs int64

	// Mode selects eager or lazy EDF.
	Mode EDFMode
	// Admit selects the admission test.
	Admit AdmitPolicy
	// Steal selects the work-stealing policy of the idle thread.
	Steal StealPolicy
	// StealCheckNs is how often an idle CPU attempts a steal.
	StealCheckNs int64

	// Limits bounds admissible constraint granularity. Zero values are
	// filled from the platform's scheduler overhead at boot.
	Limits Limits

	// MaxThreads is the compile-time bound on threads per local scheduler.
	MaxThreads int

	// InterruptThread, when true, runs device interrupt work in a
	// dedicated aperiodic thread on the interrupt-laden CPU rather than
	// entirely in handler context (the second steering mechanism of
	// Section 3.5).
	InterruptThread bool

	// PriorityFiltering programs the APIC processor priority while a hard
	// real-time thread runs so that only scheduling-related interrupts
	// reach it (the first steering mechanism of Section 3.5). On by
	// default; disable only for the ablation study.
	PriorityFiltering bool

	// Degrade configures the graceful-degradation layer: what to do with
	// periodic threads that keep missing deadlines after faults push the
	// admitted set over the edge. Zero value: degradation off.
	Degrade DegradeConfig

	// WatchdogNs, when positive, runs a cross-CPU timer watchdog: a CPU
	// whose scheduler has not run for this long while it still has work is
	// sent a kick IPI. A tickless scheduler that loses a one-shot firing
	// otherwise goes silent forever — the running thread keeps the CPU and
	// priority filtering holds every device interrupt pending. Kicks are
	// scheduling-class, so they get through. Zero: no watchdog.
	WatchdogNs int64
}

// DegradePolicy selects the graceful-degradation response applied to a
// periodic thread whose miss streak crosses the configured threshold.
type DegradePolicy uint8

const (
	// DegradeOff disables the degradation layer.
	DegradeOff DegradePolicy = iota
	// DegradeDemote downgrades the thread to the aperiodic class. It keeps
	// running best-effort; the utilization it reserved is released so the
	// surviving real-time threads can meet their deadlines again.
	DegradeDemote
	// DegradeShrink shrinks the thread's slice proportionally, keeping it
	// periodic with a lighter reservation. Once the slice would fall below
	// the floor the thread is demoted instead.
	DegradeShrink
	// DegradeEvict parks the thread (Blocked) and notifies via the Degrade
	// hook; it runs again only if the re-admission supervisor restores it
	// or someone wakes it explicitly.
	DegradeEvict
)

// String names the policy.
func (p DegradePolicy) String() string {
	switch p {
	case DegradeOff:
		return "off"
	case DegradeDemote:
		return "demote"
	case DegradeShrink:
		return "shrink"
	case DegradeEvict:
		return "evict"
	default:
		return fmt.Sprintf("DegradePolicy(%d)", uint8(p))
	}
}

// DegradeConfig tunes the degradation layer.
type DegradeConfig struct {
	// Policy selects the shed response; DegradeOff disables the layer.
	Policy DegradePolicy
	// MissStreak is the consecutive-miss threshold that triggers a shed.
	// Values below 1 are treated as the default of 3.
	MissStreak int
	// Readmit enables the re-admission supervisor: shed threads are retried
	// with their original constraints under exponential backoff.
	Readmit bool
	// ReadmitAfterNs is the base backoff before the first re-admission
	// attempt; attempt k waits ReadmitAfterNs << k. Zero defaults to four
	// periods of the shed thread's original constraints.
	ReadmitAfterNs int64
	// ReadmitMaxAttempts bounds the supervisor's retries per shed thread.
	// Values below 1 default to 8.
	ReadmitMaxAttempts int
}

// armed reports whether the degradation layer participates in scheduler
// passes.
func (d DegradeConfig) armed() bool { return d.Policy != DegradeOff }

// streak returns the effective miss-streak threshold.
func (d DegradeConfig) streak() int {
	if d.MissStreak < 1 {
		return 3
	}
	return d.MissStreak
}

// shrinkPct is the percentage of the current slice each DegradeShrink
// step keeps. Once a slice would fall below Limits.MinSliceNs the thread
// is demoted instead.
const shrinkPct = 50

// maxAttempts returns the effective re-admission retry bound.
func (d DegradeConfig) maxAttempts() int {
	if d.ReadmitMaxAttempts < 1 {
		return 8
	}
	return d.ReadmitMaxAttempts
}

// DefaultConfig returns the paper's default configuration for the given
// platform spec.
func DefaultConfig(spec machine.Spec) Config {
	const utilLimit = 0.99
	// Twice the two invocations (2·o) plan charges each job.
	minPeriod := 4 * plan.SpecFor(spec, utilLimit).OverheadNs
	minSlice := spec.CyclesToNanos(sim.Time(spec.ContextSwitchCycles))
	if minSlice < 1 {
		minSlice = 1
	}
	return Config{
		UtilizationLimit:    utilLimit,
		SporadicReservation: 0.10,
		AperiodicQuantumNs:  100_000_000, // 10 Hz
		Mode:                EagerEDF,
		Admit:               AdmitEDF,
		Steal:               StealPowerOfTwo,
		StealCheckNs:        50_000,
		Limits:              Limits{MinPeriodNs: minPeriod, MinSliceNs: minSlice},
		MaxThreads:          1024,
		PriorityFiltering:   true,
	}
}
