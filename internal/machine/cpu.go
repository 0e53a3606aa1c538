package machine

import "hrtsched/internal/sim"

// Vector identifies an interrupt. As on x64, the high nibble is the
// priority class: the APIC delivers a vector only when its class exceeds
// the CPU's task priority, otherwise the interrupt is held pending.
type Vector uint8

const (
	// VecTimer is the APIC one-shot timer interrupt that drives the local
	// scheduler. Scheduling interrupts occupy the highest priority class.
	VecTimer Vector = 0xF0
	// VecKick is the cross-CPU scheduling IPI ("kick", Section 3.4).
	VecKick Vector = 0xF1
	// VecDeviceBase is the first vector used for external device interrupts.
	VecDeviceBase Vector = 0x40
)

// Class returns the priority class (high nibble) of the vector.
func (v Vector) Class() uint8 { return uint8(v) >> 4 }

// SchedPriority is the task priority that admits only scheduling-class
// interrupts; it is what the scheduler programs while a hard real-time
// thread runs (Section 3.5).
const SchedPriority uint8 = 0xE

// InterruptSink receives delivered interrupts. The kernel's local scheduler
// registers itself as the sink of its CPU.
type InterruptSink interface {
	HandleInterrupt(cpu *CPU, vec Vector, now sim.Time)
}

// TimerFault perturbs the APIC one-shot timer — the fault-injection channel
// for modelling timer miscalibration beyond the conservative-rounding spec.
// It receives the programmed countdown in cycles and returns the countdown
// the hardware will actually honour plus whether the firing is delivered at
// all (false models a lost one-shot firing). A nil fault is the identity.
type TimerFault func(delayCycles int64) (int64, bool)

// CPU is one hardware thread: a cycle counter, an APIC with a one-shot
// timer and a task-priority register, and a boot time.
type CPU struct {
	id     int
	mach   *Machine
	bootAt sim.Time

	tscOffset int64 // TSC reading = wall clock + tscOffset

	timerEvent *sim.Event // persistent one-shot firing, re-armed in place
	timerFault TimerFault
	lostFires  int64
	tpr        uint8
	pending    []Vector // held-pending interrupts, delivery order
	sink       InterruptSink
}

func newCPU(m *Machine) *CPU {
	c := &CPU{mach: m}
	// The one-shot timer is the hottest churn site in the whole simulator:
	// every scheduler pass disarms and re-arms it. A single pre-bound
	// persistent event makes each re-arm an in-place heap fix with zero
	// allocations instead of a cancel-plus-new-event pair.
	c.timerEvent = m.Eng.NewEvent(sim.Hard, func(now sim.Time) {
		c.RaiseInterrupt(VecTimer)
	})
	return c
}

// reset powers the CPU on as hardware thread id, keeping its timer event
// (idle after the engine's reset) and its pending-vector storage.
func (c *CPU) reset(id int, bootAt sim.Time, tscOffset int64) {
	*c = CPU{
		id:         id,
		mach:       c.mach,
		bootAt:     bootAt,
		tscOffset:  tscOffset,
		timerEvent: c.timerEvent,
		pending:    c.pending[:0],
	}
}

// ID returns the hardware thread index.
func (c *CPU) ID() int { return c.id }

// Machine returns the owning machine.
func (c *CPU) Machine() *Machine { return c.mach }

// BootAt returns the time this CPU begins executing kernel boot code.
func (c *CPU) BootAt() sim.Time { return c.bootAt }

// ReadTSC returns the CPU's cycle counter, which runs at the constant
// nominal frequency and is never stopped (constant TSC; it keeps counting
// through SMIs, which is exactly what makes SMIs appear as missing time).
func (c *CPU) ReadTSC() int64 {
	return int64(c.mach.Eng.Now()) + c.tscOffset
}

// WriteTSC sets the cycle counter to v, as the calibration code does on
// machines that support it. It panics if the platform's TSC is read-only.
func (c *CPU) WriteTSC(v int64) {
	if !c.mach.Spec.TSCWritable {
		panic("machine: TSC is not writable on " + c.mach.Spec.Name)
	}
	c.tscOffset = v - int64(c.mach.Eng.Now())
}

// TSCOffset exposes the true offset for test assertions; kernel code must
// not use it (it can only estimate it, which is the whole point of
// Section 3.4).
func (c *CPU) TSCOffset() int64 { return c.tscOffset }

// SkewTSC shifts the cycle counter by delta cycles without going through
// WriteTSC. This is a hardware-level fault channel — firmware rewriting the
// counter from SMM, or a deep-sleep calibration regression — so it works
// even on platforms whose TSC is not software-writable. The kernel cannot
// observe the skew directly, only its effects on the wall-clock estimate.
func (c *CPU) SkewTSC(delta int64) { c.tscOffset += delta }

// SetTimerFault installs (or clears, with nil) the one-shot timer fault
// injector for this CPU.
func (c *CPU) SetTimerFault(f TimerFault) { c.timerFault = f }

// LostTimerFires returns the number of one-shot firings swallowed by the
// installed timer fault.
func (c *CPU) LostTimerFires() int64 { return c.lostFires }

// SetSink registers the software interrupt handler for this CPU.
func (c *CPU) SetSink(s InterruptSink) { c.sink = s }

// SetPriority programs the task-priority register. Lowering the priority
// immediately delivers any held-pending interrupts that are now admissible.
func (c *CPU) SetPriority(p uint8) {
	c.tpr = p
	c.drainPending()
}

// Priority returns the current task priority.
func (c *CPU) Priority() uint8 { return c.tpr }

func (c *CPU) drainPending() {
	if c.sink == nil {
		return
	}
	i := 0
	for i < len(c.pending) {
		v := c.pending[i]
		if v.Class() > c.tpr {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			c.sink.HandleInterrupt(c, v, c.mach.Eng.Now())
			// Restart the scan: the handler may have changed the TPR.
			i = 0
			continue
		}
		i++
	}
}

// RaiseInterrupt presents vector v to the CPU at the current time. If the
// task priority admits it and a sink is registered, it is delivered
// immediately; otherwise it is held pending (one instance per vector, as
// in the APIC's IRR).
func (c *CPU) RaiseInterrupt(v Vector) {
	if c.sink != nil && v.Class() > c.tpr {
		c.sink.HandleInterrupt(c, v, c.mach.Eng.Now())
		return
	}
	for _, p := range c.pending {
		if p == v {
			return
		}
	}
	c.pending = append(c.pending, v)
}

// PendingCount reports how many vectors are held pending.
func (c *CPU) PendingCount() int { return len(c.pending) }

// SetOneShotTicks programs the APIC one-shot timer to fire after the given
// number of APIC ticks. A previously programmed timer is replaced, and any
// undelivered fire from the previous programming is retired: the scheduler
// invocation that is re-arming has already performed the work that stale
// fire announced, so delivering it afterwards would only produce a
// zero-progress spurious invocation (and, for countdowns shorter than the
// scheduler pass, a livelock).
func (c *CPU) SetOneShotTicks(ticks int64) {
	if ticks < 1 {
		ticks = 1
	}
	c.CancelTimer()
	c.retirePending(VecTimer)
	c.armTimer(ticks * c.mach.Spec.APICTickCycles)
}

// armTimer schedules the one-shot firing after d cycles, routing the
// countdown through the installed timer fault (if any).
func (c *CPU) armTimer(d int64) {
	if c.timerFault != nil {
		var deliver bool
		d, deliver = c.timerFault(d)
		if !deliver {
			c.lostFires++
			return
		}
		if d < 1 {
			d = 1
		}
	}
	c.timerEvent.RescheduleAfter(sim.Duration(d))
}

// SetOneShotNanos programs the one-shot timer for approximately ns
// nanoseconds from now, applying the conservative resolution conversion of
// Section 3.3: the tick count is rounded down so a resolution mismatch
// produces an earlier invocation, never a later one. In TSC-deadline mode
// the conversion is exact to the cycle.
func (c *CPU) SetOneShotNanos(ns int64) {
	if ns < 0 {
		ns = 0
	}
	cycles := int64(sim.NanosToCycles(ns, c.mach.Spec.FreqHz))
	if c.mach.Spec.TSCDeadline {
		c.CancelTimer()
		c.retirePending(VecTimer)
		if cycles < 1 {
			cycles = 1
		}
		c.armTimer(cycles)
		return
	}
	c.SetOneShotTicks(cycles / c.mach.Spec.APICTickCycles)
}

// retirePending removes an undelivered instance of vector v from the IRR.
func (c *CPU) retirePending(v Vector) {
	for i, p := range c.pending {
		if p == v {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return
		}
	}
}

// CancelTimer disarms a pending one-shot timer, if any.
func (c *CPU) CancelTimer() {
	c.timerEvent.Cancel()
}

// TimerArmed reports whether a one-shot timer is pending.
func (c *CPU) TimerArmed() bool { return c.timerEvent.Armed() }

// SendIPI sends an interprocessor interrupt to dst, arriving after the
// platform's IPI flight latency.
func (c *CPU) SendIPI(dst *CPU, v Vector) {
	lat := sim.Duration(c.mach.Spec.IPILatencyCycles)
	c.mach.Eng.AfterPayload(lat, sim.Hard, ipiArrive, dst, uint64(v))
}

// ipiArrive delivers an IPI: ref is the destination CPU, arg the vector.
func ipiArrive(_ sim.Time, ref any, v uint64) {
	ref.(*CPU).RaiseInterrupt(Vector(v))
}
