package core

import (
	"fmt"

	"hrtsched/internal/machine"
	"hrtsched/internal/mem"
	"hrtsched/internal/plan"
	"hrtsched/internal/sim"
	"hrtsched/internal/timesync"
)

// Kernel is the Nautilus-style kernel instance: the machine, the calibrated
// per-CPU clocks, and the global scheduler — which is nothing but the very
// loosely coupled collection of per-CPU local schedulers (Figure 1).
type Kernel struct {
	M      *machine.Machine
	Eng    *sim.Engine
	Cfg    Config
	Calib  *timesync.Result
	Clocks []*timesync.Clock
	Locals []*LocalScheduler

	// Mem is the NUMA memory substrate. Thread control blocks and stacks
	// are placed in the zone nearest the thread's CPU, so "essential
	// thread (e.g., context, stack) and scheduler state is guaranteed to
	// always be in the most desirable zone" (Section 2).
	Mem *mem.NUMA

	// AdmitCostCycles is the cost of one local admission-control run.
	AdmitCostCycles int64

	// admit is the plan.SpecFor spec of this boot. Every overhead term
	// the kernel charges is a multiple of its OverheadNs (o): AdmitSim's
	// plan.Analyze, the wake fit (2·o) and the lazy-EDF guard (3·o).
	admit plan.Spec

	// OnSwitch, if set, is called whenever a local scheduler context-
	// switches into a thread: the instrumentation hook behind Figures 11
	// and 12.
	OnSwitch func(cpu int, t *Thread, nowNs int64, wall sim.Time)

	// Hooks are optional fine-grained instrumentation callbacks used by the
	// trace package. All run synchronously in simulation context.
	Hooks Hooks

	// GroupResolver, if set, maps a thread to its group cohort so the
	// degradation layer sheds (and re-admits) whole groups atomically,
	// never partially — the revocation mirror of Algorithm 1's
	// all-or-nothing admission. group.EnableAtomicShed installs it.
	GroupResolver func(t *Thread) []*Thread

	scopeHook *ScopeHook

	degradeStats DegradeStats

	threads     []*Thread
	liveThreads int
	stackPool   []uint64
	poolStats   PoolStats
	nextID      int
	rng         sim.Rand
	threadRands []sim.Rand
	watchdogEv  *sim.Event
}

// ScopeHook wires the GPIO instrumentation of Section 5.2 to one CPU:
// pin 0 tracks whether the designated test thread is running, pin 1 the
// scheduler pass, pin 2 the interrupt handler (which contains the pass and
// the context switch, as in Figure 4).
type ScopeHook struct {
	CPU    int
	Thread *Thread
}

// Boot constructs a kernel on machine m: runs boot-time cycle-counter
// calibration, builds the per-CPU clocks and local schedulers, and starts
// each local scheduler with an initial invocation.
func Boot(m *machine.Machine, cfg Config) *Kernel {
	k := new(Kernel)
	k.Reboot(m, cfg)
	return k
}

// Reboot boots k again on m, exactly as Boot(m, cfg) would — the same
// random draws in the same order, the same events scheduled — but in the
// storage of the previous boot, the way the paper's kernel reanimates
// thread stacks instead of reallocating them (Section 3.4). It reuses the
// local schedulers with their run-queue and steal-event storage, the
// clocks, the calibration result, the 64 per-thread random streams, the
// NUMA zones, the stack pool's storage and the Thread objects; it reuses
// nothing that carries state from the previous boot. m is typically the
// previous machine after machine.Reset; a machine with a different engine
// gets new schedulers, since their persistent events belong to an engine.
//
// Everything handed out by the previous boot — its *Thread values, its
// Threads slice, its hooks and its calibration result's contents — is
// invalid afterwards: a spawn after Reboot may recycle a previous thread
// object.
func (k *Kernel) Reboot(m *machine.Machine, cfg Config) {
	if cfg.MaxThreads <= 0 {
		cfg.MaxThreads = 1024
	}
	n := m.NumCPUs()
	locals, watchdog := k.Locals, k.watchdogEv
	if k.Eng != m.Eng {
		locals, watchdog = nil, nil
	}
	numa, calib := k.Mem, k.Calib
	if numa == nil || numa.NumCPUs() != n {
		var err error
		if numa, err = mem.PhiLayout(n); err != nil {
			panic(err)
		}
	} else {
		numa.Reset()
	}
	if calib == nil {
		calib = new(timesync.Result)
	}
	*k = Kernel{
		M:               m,
		Eng:             m.Eng,
		Cfg:             cfg,
		Calib:           calib,
		Clocks:          reuse(k.Clocks, n),
		Locals:          reuse(locals, n),
		Mem:             numa,
		AdmitCostCycles: m.Spec.AdmitCostCycles,
		admit:           plan.SpecFor(m.Spec, cfg.UtilizationLimit),
		threads:         k.threads[:0],
		stackPool:       k.stackPool[:0],
		threadRands:     k.threadRands,
		watchdogEv:      watchdog,
	}
	m.RandInto(&k.rng)
	var calibRng sim.Rand
	k.rng.SplitInto(&calibRng)
	timesync.CalibrateInto(k.Calib, m, &calibRng)
	if k.threadRands == nil {
		k.threadRands = make([]sim.Rand, 64)
	}
	for i := range k.threadRands {
		k.rng.SplitInto(&k.threadRands[i])
	}
	for i := 0; i < n; i++ {
		if k.Clocks[i] == nil {
			k.Clocks[i] = new(timesync.Clock)
		}
		k.Clocks[i].Reset(m.CPU(i), k.Calib)
		if k.Locals[i] == nil {
			k.Locals[i] = new(LocalScheduler)
		}
		k.Locals[i].reset(k, m.CPU(i), k.Clocks[i], &k.Cfg)
	}
	// Kick every local scheduler once so it arms its machinery.
	for _, s := range k.Locals {
		s.bootEv.RescheduleAfter(1)
	}
	if cfg.WatchdogNs > 0 {
		k.startWatchdog()
	}
}

// reuse returns s with length n, keeping the objects already in its
// capacity for reuse and extending it with nils.
func reuse[T any](s []*T, n int) []*T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]*T, n-cap(s))...)
	}
	return s[:n]
}

// startWatchdog arms the cross-CPU timer watchdog: every WatchdogNs it
// kicks any CPU whose scheduler has been silent that long while holding
// work. This is the recovery path for a lost one-shot timer firing — the
// only interrupt a priority-filtered real-time CPU still accepts is a
// scheduling-class IPI from a peer.
func (k *Kernel) startWatchdog() {
	if k.watchdogEv == nil {
		k.watchdogEv = k.Eng.NewEvent(sim.Hard, func(now sim.Time) {
			period := k.Cfg.WatchdogNs
			for i, s := range k.Locals {
				nowNs := s.nowNs(0)
				if nowNs-s.lastPassNs < period {
					continue
				}
				np, nrt, nap := s.Queues()
				if s.current == nil && np+nrt+nap == 0 {
					continue // truly idle: silence is fine
				}
				s.Stats.WatchdogKicks++
				k.Kick(i)
			}
			k.armWatchdog()
		})
	}
	k.armWatchdog()
}

func (k *Kernel) armWatchdog() {
	cycles := k.Clocks[0].NanosToCycles(k.Cfg.WatchdogNs)
	if cycles < 1 {
		cycles = 1
	}
	k.watchdogEv.RescheduleAfter(sim.Duration(cycles))
}

// NumCPUs returns the machine's hardware thread count.
func (k *Kernel) NumCPUs() int { return k.M.NumCPUs() }

// NowNs returns CPU 0's wall-clock estimate — the system's reference time.
func (k *Kernel) NowNs() int64 { return k.Clocks[0].NowNanos() }

// Threads returns every thread ever spawned, in creation order.
func (k *Kernel) Threads() []*Thread { return k.threads }

// LiveThreads returns the number of non-exited threads.
func (k *Kernel) LiveThreads() int { return k.liveThreads }

// Spawn creates a thread bound to the given CPU running prog, beginning
// life — as all threads do — in the aperiodic class with default priority.
// The owning local scheduler is kicked so the thread starts promptly.
func (k *Kernel) Spawn(name string, cpu int, prog Program) *Thread {
	return k.spawnOpts(name, cpu, prog, false, 100)
}

// SpawnStealable is Spawn for threads the work stealer may migrate.
func (k *Kernel) SpawnStealable(name string, cpu int, prog Program) *Thread {
	return k.spawnOpts(name, cpu, prog, true, 100)
}

// SpawnPriority is Spawn with an explicit aperiodic priority (lower value
// is more important).
func (k *Kernel) SpawnPriority(name string, cpu int, prog Program, prio uint32) *Thread {
	return k.spawnOpts(name, cpu, prog, false, prio)
}

func (k *Kernel) spawnInternal(name string, cpu int, prog Program, stealable bool) *Thread {
	// Kernel helper threads (task-exec) outrank default-priority work but
	// never real-time threads.
	return k.spawnOpts(name, cpu, prog, stealable, 50)
}

func (k *Kernel) spawnOpts(name string, cpu int, prog Program, stealable bool, prio uint32) *Thread {
	if cpu < 0 || cpu >= k.NumCPUs() {
		panic(fmt.Sprintf("core: spawn on nonexistent CPU %d", cpu))
	}
	// TCB and stack live in the zone nearest the thread's CPU, reanimated
	// from the reap pool when possible (Section 3.4).
	const tcbAndStackBytes = 32 << 10
	stackAddr, pooled := k.reanimateStack()
	if !pooled {
		var err error
		stackAddr, _, err = k.Mem.AllocNear(cpu, tcbAndStackBytes)
		if err != nil {
			panic(fmt.Sprintf("core: spawn: %v", err))
		}
	}
	// A thread object left over from before the last Reboot is recycled.
	var t *Thread
	if n := len(k.threads); n < cap(k.threads) {
		t = k.threads[:n+1][n]
	}
	if t == nil {
		t = new(Thread)
	}
	*t = Thread{
		id:        k.nextID,
		name:      name,
		k:         k,
		cpu:       cpu,
		prog:      prog,
		state:     RunnableAper,
		cons:      AperiodicConstraints(prio),
		Stealable: stealable,
		qIdx:      -1,
		stackAddr: stackAddr,
	}
	k.nextID++
	k.threads = append(k.threads, t)
	k.liveThreads++
	s := k.Locals[cpu]
	s.rrCounter++
	t.rrSeq = s.rrCounter
	s.mustPush(s.aperq, t)
	k.Kick(cpu)
	return t
}

// Wake makes a blocked or sleeping thread runnable again on its CPU and
// kicks that CPU's local scheduler. Waking a runnable thread is a no-op.
// Real-time threads that slept across arrivals have their schedule rolled
// forward silently (they were not asking for time while blocked).
func (k *Kernel) Wake(t *Thread) {
	if t.state != Blocked && t.state != Sleeping {
		return
	}
	s := k.Locals[t.cpu]
	nowNs := s.nowNs(0)
	switch t.cons.Type {
	case Periodic:
		for t.deadlineNs <= nowNs {
			t.arrivalNs = t.deadlineNs
			t.deadlineNs += t.cons.PeriodNs
			t.sliceRemCycles = s.clock.NanosToCycles(t.cons.SliceNs)
			t.periodIndex++
		}
		t.debtCycles = 0
		if t.arrivalNs <= nowNs {
			// Waking mid-period: the thread waived the part of its slice
			// it spent blocked, so commit only to what still fits before
			// the deadline (leaving room for the two invocations jobCharge
			// charges per job); committing to the full slice would
			// fabricate a miss the thread never asked the scheduler to
			// prevent.
			fitNs := t.deadlineNs - nowNs - 2*k.admit.OverheadNs
			if fitNs <= 0 {
				// Too close to the boundary: wait for the next arrival.
				t.arrivalNs = t.deadlineNs
				t.deadlineNs += t.cons.PeriodNs
				t.sliceRemCycles = s.clock.NanosToCycles(t.cons.SliceNs)
				t.periodIndex++
				t.state = PendingArrival
				s.mustPush(s.pending, t)
				break
			}
			if fit := s.clock.NanosToCycles(fitNs); fit < t.sliceRemCycles {
				t.sliceRemCycles = fit
			}
			t.state = RunnableRT
			t.Arrivals++
			s.mustPush(s.rtq, t)
		} else {
			t.state = PendingArrival
			s.mustPush(s.pending, t)
		}
	case Sporadic:
		if t.isRTNow() {
			t.state = RunnableRT
			s.mustPush(s.rtq, t)
		} else {
			t.state = RunnableAper
			s.rrCounter++
			t.rrSeq = s.rrCounter
			s.mustPush(s.aperq, t)
		}
	default:
		t.state = RunnableAper
		s.rrCounter++
		t.rrSeq = s.rrCounter
		s.mustPush(s.aperq, t)
	}
	k.Kick(t.cpu)
}

// Kick sends a scheduling IPI to the given CPU, arriving after the
// platform's IPI latency. If the CPU is mid-pass the kick is held pending
// by the task-priority mechanism and drains at dispatch.
func (k *Kernel) Kick(cpu int) {
	// An IPI's flight time is the platform's, whoever sends it.
	target := k.M.CPU(cpu)
	target.SendIPI(target, machine.VecKick)
}

// SetScope installs (or clears, with nil) the GPIO instrumentation hook.
func (k *Kernel) SetScope(h *ScopeHook) { k.scopeHook = h }

// RunNs advances the simulation by wallNs nanoseconds of simulated time.
func (k *Kernel) RunNs(wallNs int64) {
	until := k.Eng.Now() + sim.NanosToCycles(wallNs, k.M.Spec.FreqHz)
	k.Eng.Run(until)
}

// RunUntilNs advances the simulation until the reference wall clock
// (cycles since time zero) reaches wallNs.
func (k *Kernel) RunUntilNs(wallNs int64) {
	k.Eng.Run(sim.NanosToCycles(wallNs, k.M.Spec.FreqHz))
}

// RunUntil advances the simulation until cond() holds or the event queue
// drains, checking after every event. maxEvents bounds runaway loops.
func (k *Kernel) RunUntil(cond func() bool, maxEvents uint64) bool {
	var n uint64
	for !cond() {
		if !k.Eng.Step() {
			return cond()
		}
		n++
		if n > maxEvents {
			panic("core: RunUntil exceeded event bound")
		}
	}
	return true
}

// deviceIRQ handles an external device interrupt on this CPU: the bounded
// handler cost delays whatever was running (which is why RT threads live
// in the interrupt-free partition), and with the interrupt-thread
// configuration most of the work is deferred to a dedicated thread.
func (s *LocalScheduler) deviceIRQ(vec machine.Vector, now sim.Time) {
	s.Stats.DeviceIRQs++
	if s.k.Hooks.DeviceIRQ != nil {
		s.k.Hooks.DeviceIRQ(s.cpu.ID(), uint8(vec), s.nowNs(0))
	}
	src := s.k.M.IRQ.SourceByVector(vec)
	handler := int64(500)
	if src != nil {
		handler = src.HandlerCycles
	}
	irq := s.k.M.OverheadJitter(&s.rng, s.k.M.Spec.IRQEntryCycles)

	if s.cfg.InterruptThread {
		// Acknowledge only; defer the body to the interrupt thread.
		ack := handler / 8
		if ack < 100 {
			ack = 100
		}
		body := handler - ack
		s.interruptHandlerWindow(now, irq+ack)
		s.k.PostTask(s.cpu.ID(), &Task{
			Name:         "irq-body",
			ActualCycles: body,
		})
		return
	}
	s.interruptHandlerWindow(now, irq+handler)
}

// interruptHandlerWindow steals cost cycles from the current thread without
// a scheduling pass: account progress, pause, and resume the same thread
// afterwards (the timer remains armed at its absolute target). A CPU runs
// one handler at a time, so a handler arriving while a window is pending
// queues behind it: its cost extends the window, and the thread resumes
// when the last queued handler ends.
func (s *LocalScheduler) interruptHandlerWindow(now sim.Time, cost int64) {
	t := s.current
	if t == nil || t.state != Running {
		// Idle CPU: the handler just burns idle time.
		return
	}
	if s.windowEv.Armed() {
		s.windowCycles += cost
		s.windowEv.Reschedule(s.windowEv.At() + sim.Duration(cost))
		return
	}
	s.accountCurrent(now)
	s.actionEv.Cancel()
	s.scopeIRQWindow(true)
	s.windowCycles = cost
	s.windowEv.RescheduleAfter(sim.Duration(cost))
}

// onWindowDone ends the interrupt-handler window: every queued handler ran
// to completion unpreempted, so their summed cost is attributed and the
// thread resumes. A window cut short by a pass is cancelled there and its
// cycles are left to the idle residual instead.
func (s *LocalScheduler) onWindowDone(dn sim.Time) {
	s.scopeIRQWindow(false)
	t := s.current
	if t.state != Running {
		return
	}
	s.irqWindowCycles += s.windowCycles
	s.runStartWall = dn
	s.missingAtStart = s.k.Eng.MissingTime()
	s.startAction(t, dn)
}

// --- GPIO instrumentation -------------------------------------------------

func (s *LocalScheduler) scopeInvoke(now sim.Time, irq, pass, swc int64) {
	h := s.k.scopeHook
	if h == nil || h.CPU != s.cpu.ID() {
		return
	}
	g := s.k.M.GPIO
	// Pin 2: interrupt handler window (entry through context switch).
	g.SetPin(2, true)
	// Pin 1: the scheduler pass proper.
	s.k.Eng.After(sim.Duration(irq), sim.Soft, func(sim.Time) { g.SetPin(1, true) })
	s.k.Eng.After(sim.Duration(irq+pass), sim.Soft, func(sim.Time) { g.SetPin(1, false) })
	s.k.Eng.After(sim.Duration(irq+pass+swc), sim.Soft, func(sim.Time) { g.SetPin(2, false) })
}

func (s *LocalScheduler) scopeThread(active bool) {
	h := s.k.scopeHook
	if h == nil || h.CPU != s.cpu.ID() {
		return
	}
	s.k.M.GPIO.SetPin(0, active)
}

// scopeIRQWindow drives pin 2 for an interrupt-handler window: high when
// it opens, low when its last queued handler ends.
func (s *LocalScheduler) scopeIRQWindow(open bool) {
	h := s.k.scopeHook
	if h == nil || h.CPU != s.cpu.ID() {
		return
	}
	s.k.M.GPIO.SetPin(2, open)
}
