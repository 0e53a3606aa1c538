package core

import (
	"fmt"

	"hrtsched/internal/stats"
)

// ThreadState is the lifecycle state of a thread.
type ThreadState uint8

const (
	// Embryo: created, not yet started.
	Embryo ThreadState = iota
	// PendingArrival: real-time thread waiting for its next arrival time.
	PendingArrival
	// RunnableRT: in the real-time run queue (EDF order).
	RunnableRT
	// RunnableAper: in the non-real-time run queue.
	RunnableAper
	// Running: currently executing on its CPU.
	Running
	// Blocked: parked until woken (barrier, explicit block).
	Blocked
	// Sleeping: parked until a wall-clock time.
	Sleeping
	// Exited: finished.
	Exited
)

// String names the state.
func (s ThreadState) String() string {
	switch s {
	case Embryo:
		return "embryo"
	case PendingArrival:
		return "pending"
	case RunnableRT:
		return "runnable-rt"
	case RunnableAper:
		return "runnable-aper"
	case Running:
		return "running"
	case Blocked:
		return "blocked"
	case Sleeping:
		return "sleeping"
	case Exited:
		return "exited"
	default:
		return fmt.Sprintf("ThreadState(%d)", uint8(s))
	}
}

// Thread is a kernel thread: a program, a CPU binding, timing constraints,
// and the per-arrival real-time accounting the local scheduler maintains.
// Essential thread state lives with its CPU's scheduler, as in Nautilus.
type Thread struct {
	id   int
	name string
	k    *Kernel
	cpu  int
	prog Program

	state ThreadState
	cons  Constraints

	// Real-time schedule state. All wall-clock values are nanoseconds.
	admitNs        int64 // Gamma: when the current constraints took effect
	arrivalNs      int64 // current (or next, while pending) arrival
	deadlineNs     int64 // deadline of the current arrival
	sliceRemCycles int64 // execution still owed for the current arrival
	debtCycles     int64 // leftover owed from a missed previous arrival
	missDeadlineNs int64 // the deadline that leftover missed
	periodIndex    int64 // arrivals so far under the current constraints

	// Aperiodic round-robin position: threads with equal priority rotate
	// by increasing rrSeq.
	rrSeq uint64

	// Current program action. A Compute (or *Compute) owes curRemCycles;
	// an admission in flight (admitMarker) awaits its verdict on admitCons.
	cur          Action
	curRemCycles int64
	admitCons    Constraints

	// ctx is the context handed to the program's Next and Call functions,
	// refreshed for each call (see LocalScheduler.threadCtx).
	ctx ThreadCtx

	// Queue bookkeeping (fixed-size priority queues index by position).
	qIdx int

	// Statistics.
	Arrivals     int64
	Misses       int64
	MissTimeNs   stats.Summary
	SupplyCycles int64
	Switches     int64
	Preemptions  int64

	// Graceful-degradation state: consecutive missed deadlines since the
	// last cleanly met one, and the record of the last shed applied.
	missStreak  int
	lastDegrade DegradeEvent
	degraded    bool
	shedCount   int // lifetime sheds; drives cross-flap readmit backoff

	// Stealable marks aperiodic threads eligible for work stealing.
	Stealable bool

	// OnExit, if non-nil, runs (in simulation context) when the thread
	// exits.
	OnExit func(t *Thread)

	// groupData is an opaque slot for the group package.
	groupData any

	// Most recent admission verdict, surfaced through ThreadCtx.
	admitOK  bool
	admitErr error

	// stackAddr is the thread's TCB+stack allocation in the NUMA substrate,
	// freed on exit (or recycled through the thread pool).
	stackAddr uint64
}

// StackAddr returns the simulated address of the thread's TCB+stack block.
func (t *Thread) StackAddr() uint64 { return t.stackAddr }

// ID returns the thread id.
func (t *Thread) ID() int { return t.id }

// Name returns the thread's human-readable name.
func (t *Thread) Name() string { return t.name }

// CPU returns the CPU the thread is currently bound to.
func (t *Thread) CPU() int { return t.cpu }

// State returns the lifecycle state.
func (t *Thread) State() ThreadState { return t.state }

// Constraints returns the thread's current timing constraints.
func (t *Thread) Constraints() Constraints { return t.cons }

// IsRT reports whether the thread currently holds a periodic or sporadic
// constraint.
func (t *Thread) IsRT() bool {
	return t.cons.Type == Periodic || (t.cons.Type == Sporadic && t.sporadicActive())
}

// sporadicActive reports whether a sporadic thread still owes its burst.
func (t *Thread) sporadicActive() bool {
	return t.cons.Type == Sporadic && (t.sliceRemCycles > 0 || t.state == PendingArrival)
}

// GroupData returns the slot reserved for the group package.
func (t *Thread) GroupData() any { return t.groupData }

// SetGroupData stores into the slot reserved for the group package.
func (t *Thread) SetGroupData(v any) { t.groupData = v }

// DeadlineNs returns the current deadline (valid while RT and arrived).
func (t *Thread) DeadlineNs() int64 { return t.deadlineNs }

// ArrivalNs returns the current/next arrival time.
func (t *Thread) ArrivalNs() int64 { return t.arrivalNs }

// AdmitNs returns Gamma, the admission time of the current constraints.
func (t *Thread) AdmitNs() int64 { return t.admitNs }

// SliceRemainingCycles returns the execution still owed this arrival.
func (t *Thread) SliceRemainingCycles() int64 { return t.sliceRemCycles }

// MissStreak returns the number of consecutive deadlines missed since the
// last cleanly completed slice.
func (t *Thread) MissStreak() int { return t.missStreak }

// Degraded reports whether the degradation layer has shed this thread, and
// if so returns the most recent shed event.
func (t *Thread) Degraded() (DegradeEvent, bool) { return t.lastDegrade, t.degraded }

// MissRate returns Misses/Arrivals, or 0 before the first arrival.
func (t *Thread) MissRate() float64 {
	if t.Arrivals == 0 {
		return 0
	}
	return float64(t.Misses) / float64(t.Arrivals)
}

// resetSchedule installs cons with admission time gammaNs and computes the
// first arrival. Called under the local scheduler.
func (t *Thread) resetSchedule(cons Constraints, gammaNs int64, nsToCycles func(int64) int64) {
	t.cons = cons
	t.admitNs = gammaNs
	t.periodIndex = 0
	t.debtCycles = 0
	t.missDeadlineNs = 0
	t.missStreak = 0
	switch cons.Type {
	case Periodic:
		t.arrivalNs = gammaNs + cons.PhaseNs
		t.deadlineNs = t.arrivalNs + cons.PeriodNs
		t.sliceRemCycles = nsToCycles(cons.SliceNs)
	case Sporadic:
		t.arrivalNs = gammaNs + cons.PhaseNs
		t.deadlineNs = gammaNs + cons.DeadlineNs
		t.sliceRemCycles = nsToCycles(cons.SizeNs)
	default:
		t.arrivalNs = 0
		t.deadlineNs = 0
		t.sliceRemCycles = 0
	}
}

// advancePeriod rolls a periodic thread to the arrival after nowNs,
// recording misses for any deadline that passed unserved. Returns the
// number of deadlines that were missed in the roll.
func (t *Thread) advancePeriod(nowNs int64, nsToCycles func(int64) int64, record func(missNs int64)) int {
	if t.cons.Type != Periodic {
		return 0
	}
	missed := 0
	for t.deadlineNs <= nowNs {
		// A previous miss whose leftover never completed within the extra
		// period: account its miss time as one full period (capped).
		if t.debtCycles > 0 {
			record(nowNs - t.missDeadlineNs)
			t.Misses++
			t.missStreak++
			t.debtCycles = 0
			missed++
		} else if t.sliceRemCycles > 0 && t.Arrivals > 0 {
			// The arrival that just ended did not get its slice: miss. The
			// leftover becomes debt; its completion time determines the
			// miss time (Figures 8 and 9).
			t.Misses++
			t.missStreak++
			t.debtCycles = t.sliceRemCycles
			t.missDeadlineNs = t.deadlineNs
			missed++
		}
		t.arrivalNs = t.deadlineNs
		t.deadlineNs += t.cons.PeriodNs
		t.sliceRemCycles = nsToCycles(t.cons.SliceNs)
		t.periodIndex++
		t.Arrivals++
	}
	return missed
}

// supply grants the thread's real-time accounting executed cycles, paying
// down miss debt first. It returns true if the current arrival's slice just
// completed. Total execution (SupplyCycles) is tracked by the scheduler's
// accountCurrent, not here.
func (t *Thread) supply(cycles int64, nowNs int64, record func(missNs int64)) bool {
	if t.debtCycles > 0 {
		pay := cycles
		if pay > t.debtCycles {
			pay = t.debtCycles
		}
		t.debtCycles -= pay
		cycles -= pay
		if t.debtCycles == 0 {
			record(nowNs - t.missDeadlineNs)
		}
	}
	if cycles <= 0 {
		return false
	}
	before := t.sliceRemCycles
	t.sliceRemCycles -= cycles
	if t.sliceRemCycles < 0 {
		t.sliceRemCycles = 0
	}
	return before > 0 && t.sliceRemCycles == 0
}
