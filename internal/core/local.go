package core

import (
	"hrtsched/internal/machine"
	"hrtsched/internal/sim"
	"hrtsched/internal/stats"
	"hrtsched/internal/timesync"
)

// InvokeReason says why a local scheduler invocation happened: a timer
// interrupt, a kick IPI from another local scheduler, or one of the small
// set of actions the current thread can take (sleep, wait, exit, change
// constraints) — Section 3.3.
type InvokeReason uint8

const (
	// ReasonTimer is the APIC one-shot timer interrupt.
	ReasonTimer InvokeReason = iota
	// ReasonKick is the cross-CPU scheduling IPI.
	ReasonKick
	// ReasonThread is a direct call from the current thread.
	ReasonThread
	// ReasonBoot is the initial invocation when the scheduler starts.
	ReasonBoot
)

// SchedStats aggregates a local scheduler's observable behaviour. The
// cycle-cost summaries are the four categories of Figure 5.
type SchedStats struct {
	Invocations int64
	TimerIRQs   int64
	Kicks       int64
	ThreadCalls int64
	DeviceIRQs  int64
	Switches    int64

	IRQCycles     stats.Summary // interrupt entry/exit ("IRQ")
	OtherCycles   stats.Summary // locking, queues, accounting ("Other")
	ReschedCycles stats.Summary // the scheduling pass ("Resched")
	SwitchCycles  stats.Summary // context switch ("Switch")

	StealAttempts int64
	Steals        int64
	TasksInline   int64
	IdleEntered   int64

	// WatchdogKicks counts recoveries by the timer watchdog: passes this
	// CPU only made because the watchdog noticed its timer went silent.
	WatchdogKicks int64

	Miss MissStats
}

// MissStats breaks down miss-magnitude recording on one CPU. A negative raw
// magnitude means a miss record was produced for a deadline that had not
// actually passed — an accounting bug upstream. Such records are still
// clamped to zero for the summary, but they are counted here so they cannot
// hide.
type MissStats struct {
	Recorded        int64 // miss magnitudes recorded (after clamping)
	ClampedNegative int64 // records whose raw magnitude was negative
	WorstRawNegNs   int64 // most negative raw magnitude observed
}

// LocalScheduler is the per-CPU eager EDF engine of Figure 2. It is driven
// only by a timer interrupt, a kick from another local scheduler, or an
// action of the current thread.
type LocalScheduler struct {
	k     *Kernel
	cpu   *machine.CPU
	clock *timesync.Clock
	cfg   *Config
	rng   sim.Rand

	pending *threadHeap // admitted RT threads waiting for their arrival
	rtq     *threadHeap // arrived RT threads, EDF order
	aperq   *threadHeap // non-RT threads, priority + round robin

	sizedTasks   []*Task // size-tagged tasks the scheduler may run inline
	unsizedTasks []*Task // tasks for the helper thread
	taskThread   *Thread

	current        *Thread
	gen            uint64
	inPass         bool
	runStartWall   sim.Time
	missingAtStart sim.Duration
	quantumEndNs   int64
	bootEv         *sim.Event // persistent first-invocation event
	stealEv        *sim.Event // persistent steal-attempt event
	stealGen       uint64     // s.gen when stealEv was last armed
	rrCounter      uint64

	// The current thread's in-flight action and interrupt-handler window
	// end on one persistent event each: a CPU runs one of the two at a
	// time, and a pass cancels both.
	actionEv     *sim.Event // onActionComplete
	windowEv     *sim.Event // onWindowDone
	windowCycles int64      // summed cost of the handlers windowEv ends

	// Cost of pass s.gen, booked by its completion event (see passDone).
	passOverheadCycles int64 // IRQ entry + other + resched + switch
	passInlineCycles   int64 // size-tagged tasks run inline

	periodicUtil float64
	sporadicUtil float64

	sliceSlackCycles int64

	// Cycle-conservation ledger (see Ledger). Attribution is conservative:
	// work cut short by a new pass is left to the idle residual rather than
	// risk double counting, so idle can only be over-, never under-stated.
	acctStarted     bool
	acctStartWall   sim.Time
	acctMissing0    sim.Duration
	busyCycles      int64
	overheadCycles  int64
	irqWindowCycles int64
	inlineCycles    int64

	// lastPassNs is when the scheduler last ran, fed to the timer watchdog:
	// a tickless scheduler that loses its one-shot firing goes silent until
	// some other interrupt arrives, and with priority filtering only a
	// scheduling-class interrupt can get through.
	lastPassNs int64

	Stats SchedStats
}

// Ledger is the per-CPU cycle-conservation ledger since the scheduler's
// first invocation: every wall cycle is thread execution, scheduler
// overhead, an interrupt-handler window, an inline task, SMI missing time,
// or idle. Idle is computed as the residual, so the conservation invariant
// "compute + overhead + irq + inline + missing + idle == wall" holds by
// construction and the checkable claim is that the residual is never
// negative (nothing was counted twice).
type Ledger struct {
	WallCycles      int64
	MissingCycles   int64 // SMI freeze time already elapsed in the window
	BusyCycles      int64 // thread execution credited by accountCurrent
	OverheadCycles  int64 // completed scheduler invocations (IRQ+pass+switch)
	IRQWindowCycles int64 // device-interrupt handler windows run to completion
	InlineCycles    int64 // size-tagged tasks run in scheduler context
	IdleCycles      int64 // residual: wall - missing - everything attributed
}

// Ledger returns the CPU's conservation ledger. A freeze in progress books
// its missing time up front, so the not-yet-elapsed part is deducted to keep
// the ledger consistent mid-SMI.
func (s *LocalScheduler) Ledger() Ledger {
	if !s.acctStarted {
		return Ledger{}
	}
	eng := s.k.Eng
	wall := int64(eng.Now() - s.acctStartWall)
	miss := int64(eng.MissingTime() - s.acctMissing0)
	if fu := eng.FrozenUntil(); fu > eng.Now() {
		miss -= int64(fu - eng.Now())
	}
	if miss < 0 {
		miss = 0
	}
	l := Ledger{
		WallCycles:      wall,
		MissingCycles:   miss,
		BusyCycles:      s.busyCycles,
		OverheadCycles:  s.overheadCycles,
		IRQWindowCycles: s.irqWindowCycles,
		InlineCycles:    s.inlineCycles,
	}
	l.IdleCycles = wall - miss - l.BusyCycles - l.OverheadCycles - l.IRQWindowCycles - l.InlineCycles
	return l
}

// reset makes s the freshly booted scheduler of cpu, drawing its stream
// from the kernel's. Only storage survives from a previous boot: the run
// queues' arrays and the persistent events (idle after the engine's
// reset).
func (s *LocalScheduler) reset(k *Kernel, cpu *machine.CPU, clock *timesync.Clock, cfg *Config) {
	pending, rtq, aperq := s.pending, s.rtq, s.aperq
	if pending == nil {
		pending, rtq, aperq = new(threadHeap), new(threadHeap), new(threadHeap)
	}
	pending.reset(cfg.MaxThreads, byArrival)
	rtq.reset(cfg.MaxThreads, byDeadline)
	aperq.reset(cfg.MaxThreads, byPriorityRR)
	*s = LocalScheduler{
		k:        k,
		cpu:      cpu,
		clock:    clock,
		cfg:      cfg,
		pending:  pending,
		rtq:      rtq,
		aperq:    aperq,
		actionEv: s.actionEv,
		windowEv: s.windowEv,
		bootEv:   s.bootEv,
		stealEv:  s.stealEv,
	}
	k.rng.SplitInto(&s.rng)
	s.sliceSlackCycles = 2*k.M.Spec.APICTickCycles + 64
	if s.bootEv == nil {
		s.bootEv = k.Eng.NewEvent(sim.Hard, func(now sim.Time) {
			s.invoke(ReasonBoot, now)
		})
		s.actionEv = k.Eng.NewEvent(sim.Soft, s.onActionComplete)
		s.windowEv = k.Eng.NewEvent(sim.Soft, s.onWindowDone)
	}
	// The steal attempt is per-pass churn with an at-most-one-pending
	// invariant (armed only from dispatch, which follows a cancelling
	// invocation, or from its own firing), so it re-arms one persistent
	// event in place. The stale-firing guard moved from a captured closure
	// variable to stealGen: an invocation bumps s.gen and cancels the
	// event, so a firing armed under an older generation is ignored
	// exactly as before.
	if s.stealEv == nil {
		s.stealEv = k.Eng.NewEvent(sim.Soft, func(now sim.Time) {
			if s.stealGen != s.gen || s.current != nil {
				return
			}
			if s.trySteal() {
				s.invoke(ReasonThread, now)
				return
			}
			s.armSteal()
		})
	}
	cpu.SetSink(s)
}

// CPU returns the hardware thread this scheduler owns.
func (s *LocalScheduler) CPU() int { return s.cpu.ID() }

// Current returns the thread now running, or nil when idle.
func (s *LocalScheduler) Current() *Thread { return s.current }

// PeriodicUtilization returns the admitted periodic utilization.
func (s *LocalScheduler) PeriodicUtilization() float64 { return s.periodicUtil }

// Queues returns the lengths of (pending, rt, aperiodic) queues.
func (s *LocalScheduler) Queues() (int, int, int) {
	return s.pending.Len(), s.rtq.Len(), s.aperq.Len()
}

// nowNs returns this CPU's wall-clock estimate, offset by extra cycles of
// not-yet-elapsed handler time (the pass observes the clock after interrupt
// entry, not at the hardware edge).
func (s *LocalScheduler) nowNs(extraCycles int64) int64 {
	return s.clock.CyclesToNanos(s.clock.NowCycles() + extraCycles)
}

// HandleInterrupt implements machine.InterruptSink.
func (s *LocalScheduler) HandleInterrupt(cpu *machine.CPU, vec machine.Vector, now sim.Time) {
	switch vec {
	case machine.VecTimer:
		s.Stats.TimerIRQs++
		s.invoke(ReasonTimer, now)
	case machine.VecKick:
		s.Stats.Kicks++
		s.invoke(ReasonKick, now)
	default:
		s.deviceIRQ(vec, now)
	}
}

// invoke is one local scheduler invocation: mask interrupts, account the
// interrupted thread, pump arrivals, update state, select the next thread
// (eager EDF), and schedule the dispatch after the invocation's cost.
func (s *LocalScheduler) invoke(reason InvokeReason, now sim.Time) {
	if debugInvoke != nil {
		debugInvoke(s, reason, now)
	}
	s.gen++
	s.inPass = true
	s.cpu.SetPriority(0xF)
	s.actionEv.Cancel()
	s.cancelSteal()
	s.Stats.Invocations++
	if !s.acctStarted {
		s.acctStarted = true
		s.acctStartWall = now
		s.acctMissing0 = s.k.Eng.MissingTime()
	}

	spec := &s.k.M.Spec
	var irq int64
	switch reason {
	case ReasonTimer, ReasonKick:
		irq = s.k.M.OverheadJitter(&s.rng, spec.IRQEntryCycles)
	case ReasonThread:
		s.Stats.ThreadCalls++
	}
	other := s.k.M.OverheadJitter(&s.rng, spec.SchedOtherCycles)
	resched := s.k.M.OverheadJitter(&s.rng, spec.SchedPassCycles)

	if s.current != nil && s.current.state == Running {
		s.accountCurrent(now)
	}
	s.windowEv.Cancel()
	entryCurrent := s.current

	// The pass observes the wall clock after entry costs have elapsed.
	decisionNs := s.nowNs(irq + other)
	s.lastPassNs = decisionNs

	s.pump(decisionNs)
	s.updateCurrent(decisionNs)
	if s.cfg.Degrade.armed() {
		s.applyDegrade(decisionNs)
	}

	// Inline execution of size-tagged tasks: they run in scheduler context
	// when no real-time thread needs the CPU and they fit before the next
	// arrival (Section 3.1).
	inline := s.drainSizedTasks(decisionNs)

	next := s.selectNext(decisionNs)

	var swc int64
	if next != s.current {
		swc = s.k.M.OverheadJitter(&s.rng, spec.ContextSwitchCycles)
		s.switchTo(next, decisionNs)
	}
	if entryCurrent != nil && entryCurrent != s.current && s.k.Hooks.SwitchOut != nil {
		s.k.Hooks.SwitchOut(s.cpu.ID(), entryCurrent, decisionNs)
	}

	if reason == ReasonTimer || reason == ReasonKick {
		s.Stats.IRQCycles.Add(float64(irq))
	}
	s.Stats.OtherCycles.Add(float64(other))
	s.Stats.ReschedCycles.Add(float64(resched))
	if swc > 0 {
		s.Stats.SwitchCycles.Add(float64(swc))
	}

	total := irq + other + resched + swc + inline
	if total < 1 {
		total = 1
	}
	if s.k.Hooks.Pass != nil {
		s.k.Hooks.Pass(s.cpu.ID(), s, decisionNs)
	}

	s.passOverheadCycles = irq + other + resched + swc
	s.passInlineCycles = inline
	s.k.Eng.AfterPayload(sim.Duration(total), sim.Soft, passDone, s, s.gen)
	s.scopeInvoke(now, irq, other+resched+inline, swc)
}

// passDone completes pass gen of the scheduler in ref. A pass superseded
// by a newer invocation still fires (an engine step) but does nothing: its
// cost is left to the idle residual, so the scheduler keeps only the
// newest pass's cost.
func passDone(dn sim.Time, ref any, gen uint64) {
	s := ref.(*LocalScheduler)
	if gen != s.gen {
		return
	}
	s.overheadCycles += s.passOverheadCycles
	s.inlineCycles += s.passInlineCycles
	s.dispatch(dn)
}

// accountCurrent credits the running thread with the cycles it actually
// executed since it was dispatched, excluding SMI missing time. While an
// interrupt-handler window is armed the thread is paused and credits
// nothing: the handlers own those cycles, booked when the window ends or
// left to the idle residual when a pass cuts it short.
func (s *LocalScheduler) accountCurrent(now sim.Time) {
	if s.windowEv.Armed() {
		return
	}
	t := s.current
	elapsed := int64(now-s.runStartWall) - int64(s.k.Eng.MissingTime()-s.missingAtStart)
	if elapsed < 0 {
		elapsed = 0
	}
	s.runStartWall = now
	s.missingAtStart = s.k.Eng.MissingTime()
	if elapsed == 0 {
		return
	}
	s.busyCycles += elapsed
	t.SupplyCycles += elapsed
	switch t.cur.(type) {
	case Compute, *Compute:
		t.curRemCycles -= elapsed
		if t.curRemCycles < 0 {
			t.curRemCycles = 0
		}
	}
	if t.cons.Type == Periodic || t.cons.Type == Sporadic {
		t.supply(elapsed, s.nowNs(0), s.recordMissTime(t))
	}
}

func (s *LocalScheduler) recordMissTime(t *Thread) func(int64) {
	return func(missNs int64) {
		if missNs < 0 {
			// A negative magnitude means the record concerns a deadline that
			// has not passed — an accounting bug. Keep the historical clamp
			// for the summary, but count the event so it cannot hide.
			s.Stats.Miss.ClampedNegative++
			if missNs < s.Stats.Miss.WorstRawNegNs {
				s.Stats.Miss.WorstRawNegNs = missNs
			}
			missNs = 0
		}
		s.Stats.Miss.Recorded++
		t.MissTimeNs.Add(float64(missNs))
		if s.k.Hooks.Miss != nil {
			s.k.Hooks.Miss(s.cpu.ID(), t, s.nowNs(0), missNs)
		}
	}
}

// pump moves every pending thread whose arrival time has passed into the
// real-time run queue, and rolls forward queued threads whose deadlines
// passed unserved (recording their misses).
func (s *LocalScheduler) pump(nowNs int64) {
	for {
		t := s.pending.Peek()
		if t == nil || t.arrivalNs > nowNs {
			break
		}
		s.pending.Pop()
		t.Arrivals++
		if s.k.Hooks.Arrival != nil {
			s.k.Hooks.Arrival(s.cpu.ID(), t, nowNs)
		}
		if t.deadlineNs <= nowNs {
			t.advancePeriod(nowNs, s.clock.NanosToCycles, s.recordMissTime(t))
		}
		t.state = RunnableRT
		s.mustPush(s.rtq, t)
	}
	// Queued RT threads whose deadline passed: misses, roll forward.
	for {
		t := s.rtq.Peek()
		if t == nil || t.deadlineNs > nowNs {
			break
		}
		if t.cons.Type == Periodic {
			t.advancePeriod(nowNs, s.clock.NanosToCycles, s.recordMissTime(t))
			s.rtq.Fix(t)
		} else {
			// Sporadic past deadline: it stays at the head (earliest
			// deadline) until its burst completes; the miss is recorded at
			// completion via the debt mechanism.
			if t.debtCycles == 0 && t.sliceRemCycles > 0 {
				t.Misses++
				t.debtCycles = t.sliceRemCycles
				t.sliceRemCycles = 0
				t.missDeadlineNs = t.deadlineNs
			}
			break
		}
	}
}

// updateCurrent re-evaluates the state of the interrupted thread: deadline
// rollover, slice exhaustion, quantum expiry, or departure (blocked,
// sleeping, exited).
func (s *LocalScheduler) updateCurrent(nowNs int64) {
	t := s.current
	if t == nil {
		return
	}
	if t.state != Running {
		// The thread blocked, slept or exited during its last action.
		s.current = nil
		return
	}
	switch t.cons.Type {
	case Periodic:
		if t.deadlineNs <= nowNs {
			t.advancePeriod(nowNs, s.clock.NanosToCycles, s.recordMissTime(t))
		}
		if t.debtCycles == 0 && t.sliceRemCycles <= s.sliceSlackCycles {
			// Slice complete (within timer slack): wait for next arrival.
			t.supply(t.sliceRemCycles, nowNs, s.recordMissTime(t))
			t.missStreak = 0
			t.arrivalNs = t.deadlineNs
			t.deadlineNs += t.cons.PeriodNs
			t.sliceRemCycles = s.clock.NanosToCycles(t.cons.SliceNs)
			t.periodIndex++
			t.state = PendingArrival
			s.mustPush(s.pending, t)
			s.current = nil
		}
	case Sporadic:
		if t.debtCycles == 0 && t.sliceRemCycles <= s.sliceSlackCycles {
			// Burst complete: the thread lives on as an aperiodic thread
			// with its designated priority.
			s.sporadicUtil -= t.chargedUtil()
			if s.sporadicUtil < 0 {
				s.sporadicUtil = 0
			}
			t.cons = AperiodicConstraints(t.cons.Priority)
			t.sliceRemCycles = 0
			s.quantumEndNs = nowNs + s.cfg.AperiodicQuantumNs
		}
	case Aperiodic:
		if nowNs >= s.quantumEndNs {
			s.rrCounter++
			t.rrSeq = s.rrCounter
			// Recharge the quantum now: if no better thread exists the
			// current one continues, and a stale (past) quantum end would
			// otherwise re-arm the timer for an immediate re-invocation.
			s.quantumEndNs = nowNs + s.cfg.AperiodicQuantumNs
		}
	}
}

// selectNext picks the most important runnable thread: the earliest
// deadline real-time thread if any (eager EDF), else the best aperiodic
// thread, else nothing (idle). In lazy mode a real-time thread whose
// latest feasible start is still in the future is deliberately not chosen.
func (s *LocalScheduler) selectNext(nowNs int64) *Thread {
	cur := s.current

	// Candidate RT thread: head of the queue vs the current thread.
	var rt *Thread
	if cur != nil && cur.state == Running && cur.isRTNow() {
		rt = cur
	}
	if h := s.rtq.Peek(); h != nil {
		if rt == nil || byDeadline(h, rt) {
			rt = h
		}
	}
	if rt != nil && s.cfg.Mode == LazyEDF && rt != cur {
		needNs := s.clock.CyclesToNanos(rt.sliceRemCycles + rt.debtCycles)
		latest := rt.deadlineNs - needNs - s.lazyGuardNs()
		if nowNs < latest {
			rt = nil // defer; timer target will include latest start
		}
	}
	if rt != nil {
		return rt
	}

	// Aperiodic: current keeps the CPU until quantum expiry unless a more
	// important thread waits.
	var ap *Thread
	if cur != nil && cur.state == Running && !cur.isRTNow() {
		ap = cur
	}
	if h := s.aperq.Peek(); h != nil {
		if ap == nil || byPriorityRR(h, ap) {
			ap = h
		}
	}
	return ap
}

// isRTNow reports whether the thread presently holds real-time standing.
func (t *Thread) isRTNow() bool {
	switch t.cons.Type {
	case Periodic:
		return true
	case Sporadic:
		return t.sliceRemCycles > 0 || t.debtCycles > 0
	default:
		return false
	}
}

// chargedUtil returns the utilization this thread reserves.
func (t *Thread) chargedUtil() float64 {
	return t.cons.Utilization()
}

// switchTo makes next the current thread, requeueing the previous one.
func (s *LocalScheduler) switchTo(next *Thread, nowNs int64) {
	prev := s.current
	if prev != nil && prev != next && prev.state == Running {
		if prev.isRTNow() {
			prev.state = RunnableRT
			s.mustPush(s.rtq, prev)
		} else {
			prev.state = RunnableAper
			s.mustPush(s.aperq, prev)
		}
		prev.Preemptions++
	}
	if next != nil && next != prev {
		// Remove from whichever queue holds it.
		if s.rtq.Contains(next) {
			s.rtq.Remove(next)
		} else if s.aperq.Contains(next) {
			s.aperq.Remove(next)
		}
		next.Switches++
		if !next.isRTNow() {
			s.quantumEndNs = nowNs + s.cfg.AperiodicQuantumNs
		}
	}
	s.current = next
	s.Stats.Switches++
	if next == nil {
		s.Stats.IdleEntered++
	}
}

// dispatch completes an invocation: program the one-shot timer for the
// next scheduling event, start the chosen thread's action, and lower the
// processor priority (delivering any held-pending interrupts).
func (s *LocalScheduler) dispatch(now sim.Time) {
	s.inPass = false
	gen := s.gen
	t := s.current

	nowNs := s.nowNs(0)
	target := s.nextTimerTargetNs(nowNs)
	if target < int64(1<<62) {
		delay := target - nowNs
		if delay < 0 {
			delay = 0
		}
		if debugDispatch != nil {
			debugDispatch(s, nowNs, delay)
		}
		s.cpu.SetOneShotNanos(delay)
	} else {
		s.cpu.CancelTimer()
	}

	if t == nil {
		s.scopeThread(false)
		s.armSteal()
		s.cpu.SetPriority(0)
		return
	}

	t.state = Running
	s.runStartWall = now
	s.missingAtStart = s.k.Eng.MissingTime()
	if s.k.OnSwitch != nil {
		s.k.OnSwitch(s.cpu.ID(), t, nowNs, now)
	}
	if s.k.Hooks.SwitchIn != nil {
		s.k.Hooks.SwitchIn(s.cpu.ID(), t, nowNs)
	}
	s.scopeThread(s.k.scopeHook != nil && t == s.k.scopeHook.Thread)

	s.startAction(t, now)
	if gen != s.gen {
		return // the action re-entered the scheduler
	}
	if t.isRTNow() && s.cfg.PriorityFiltering {
		s.cpu.SetPriority(machine.SchedPriority)
	} else {
		s.cpu.SetPriority(0)
	}
}

// nextTimerTargetNs computes the wall-clock time of the next scheduling
// event this CPU must wake for.
func (s *LocalScheduler) nextTimerTargetNs(nowNs int64) int64 {
	target := int64(1 << 62)
	if p := s.pending.Peek(); p != nil && p.arrivalNs < target {
		target = p.arrivalNs
	}
	if t := s.current; t != nil {
		switch {
		case t.isRTNow():
			need := s.clock.CyclesToNanos(t.sliceRemCycles + t.debtCycles)
			if end := nowNs + need; end < target {
				target = end
			}
			if t.deadlineNs < target {
				target = t.deadlineNs
			}
		default:
			if s.quantumEndNs < target {
				target = s.quantumEndNs
			}
		}
		// An RT thread waiting in the queue still bounds our wakeup: its
		// deadline must be honoured even while someone else runs.
		if h := s.rtq.Peek(); h != nil {
			if s.cfg.Mode == LazyEDF {
				needNs := s.clock.CyclesToNanos(h.sliceRemCycles + h.debtCycles)
				if latest := h.deadlineNs - needNs - s.lazyGuardNs(); latest < target {
					target = latest
				}
			} else if h.deadlineNs < target {
				target = h.deadlineNs
			}
		}
	} else if h := s.rtq.Peek(); h != nil {
		// Idle with runnable RT work should not happen (eager), but a lazy
		// scheduler can be here deliberately.
		if s.cfg.Mode == LazyEDF {
			needNs := s.clock.CyclesToNanos(h.sliceRemCycles + h.debtCycles)
			if latest := h.deadlineNs - needNs - s.lazyGuardNs(); latest < target {
				target = latest
			}
		} else if h.deadlineNs < target {
			target = h.deadlineNs
		}
	}
	return target
}

var debugInvoke func(*LocalScheduler, InvokeReason, sim.Time)

var debugDispatch func(*LocalScheduler, int64, int64)

// lazyGuardNs is the margin a lazy (latest-possible-start) scheduler must
// leave for its own invocation costs: three worst-case invocations (3·o).
// It deliberately cannot cover SMI
// missing time, which is exactly why the paper rejects lazy EDF (3.6).
func (s *LocalScheduler) lazyGuardNs() int64 {
	return 3 * s.k.admit.OverheadNs
}

func (s *LocalScheduler) mustPush(h *threadHeap, t *Thread) {
	if err := h.Push(t); err != nil {
		panic(err)
	}
}
