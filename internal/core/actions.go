package core

import (
	"fmt"
	"math"

	"hrtsched/internal/plan"
	"hrtsched/internal/sim"
)

// admitMarker is the internal continuation of a ChangeConstraints action:
// the admission-control computation runs as thread execution (the paper's
// "admission control runs in the context of the thread requesting
// admission"), and when the computation completes the verdict is applied.
// The requested constraints wait in the thread's admitCons, so the marker
// is empty and boxing it allocates nothing.
type admitMarker struct{}

func (admitMarker) isAction() {}

// startAction drives the current thread's program until an action that
// takes time (Compute) or transfers control (block, sleep, exit, yield).
// Instantaneous actions execute inline at the current instant.
func (s *LocalScheduler) startAction(t *Thread, now sim.Time) {
	const maxInline = 1 << 16
	for spin := 0; ; spin++ {
		if spin > maxInline {
			panic(fmt.Sprintf("core: thread %q livelocked on zero-cost actions", t.name))
		}
		if t.cur == nil {
			t.cur = t.prog.Next(s.threadCtx(t))
			switch a := t.cur.(type) {
			case Compute:
				t.curRemCycles = a.Cycles
			case *Compute:
				t.curRemCycles = a.Cycles
			}
		}
		switch a := t.cur.(type) {
		case Compute, *Compute:
			if t.curRemCycles <= 0 {
				t.cur = nil
				continue
			}
			s.actionEv.RescheduleAfter(sim.Duration(t.curRemCycles))
			return
		case Call:
			t.cur = nil
			a.Fn(s.threadCtx(t))
			if t.state != Running {
				// The call blocked/woke/reshaped the world via kernel
				// helpers; let the scheduler sort it out.
				s.invoke(ReasonThread, s.k.Eng.Now())
				return
			}
			continue
		case Yield:
			t.cur = nil
			if !t.isRTNow() {
				s.rrCounter++
				t.rrSeq = s.rrCounter
			}
			s.invoke(ReasonThread, s.k.Eng.Now())
			return
		case Block:
			t.cur = nil
			t.state = Blocked
			s.invoke(ReasonThread, s.k.Eng.Now())
			return
		case SleepUntil:
			s.sleep(t, a.WallNs)
			return
		case *SleepUntil:
			s.sleep(t, a.WallNs)
			return
		case Exit:
			s.exitThread(t)
			s.invoke(ReasonThread, s.k.Eng.Now())
			return
		case ChangeConstraints:
			// Consume the admission-control cost in thread context, then
			// apply the verdict.
			t.cur = admitMarker{}
			t.admitCons = a.C
			cost := s.k.AdmitCostCycles
			if cost < 1 {
				cost = 1
			}
			s.actionEv.RescheduleAfter(sim.Duration(cost))
			return
		case admitMarker:
			// Reached only on resume after preemption mid-admission; the
			// remaining cost was already consumed.
			t.cur = nil
			s.applyAdmission(t, t.admitCons)
			return
		default:
			panic(fmt.Sprintf("core: unknown action %T", t.cur))
		}
	}
}

// onActionComplete fires when the current thread's Compute (or admission
// computation) finishes on time.
func (s *LocalScheduler) onActionComplete(now sim.Time) {
	t := s.current
	s.accountCurrent(now)
	switch t.cur.(type) {
	case Compute, *Compute:
		t.cur = nil
		t.curRemCycles = 0
		s.startAction(t, now)
	case admitMarker:
		t.cur = nil
		s.applyAdmission(t, t.admitCons)
	default:
		panic(fmt.Sprintf("core: completion for non-timed action %T", t.cur))
	}
}

// threadCtx refreshes and returns t's program-facing context. Each thread
// owns one, rewritten for every Next and Call; no program keeps it past
// the call it was handed to (see ThreadCtx).
func (s *LocalScheduler) threadCtx(t *Thread) *ThreadCtx {
	t.ctx = ThreadCtx{
		K:        s.k,
		T:        t,
		CPU:      s.cpu.ID(),
		NowNs:    s.nowNs(0),
		Rand:     &s.k.threadRands[t.id%len(s.k.threadRands)],
		AdmitOK:  t.admitOK,
		AdmitErr: t.admitErr,
	}
	return &t.ctx
}

// applyAdmission runs the admission test for t's requested constraints and
// installs them on success. It always re-enters the scheduler: an admitted
// RT thread must wait for its first arrival, and a rejected or aperiodic
// thread resumes under its (possibly restored) old constraints.
func (s *LocalScheduler) applyAdmission(t *Thread, c Constraints) {
	nowNs := s.nowNs(0)
	err := s.Admit(t, c, nowNs)
	t.admitOK = err == nil
	t.admitErr = err
	if err == nil && c.Type != Aperiodic {
		// Thread leaves the CPU until its first arrival.
		t.state = PendingArrival
		s.mustPush(s.pending, t)
		s.current = nil
	}
	s.invoke(ReasonThread, s.k.Eng.Now())
}

// AdmitCheck runs the admission test for thread t requesting c without
// applying anything: would these constraints be admitted right now? The
// thread's own current reservation is treated as released for the test.
func (s *LocalScheduler) AdmitCheck(t *Thread, c Constraints) error {
	var limits *Limits
	if s.cfg.Admit != AdmitNone {
		limits = &s.cfg.Limits
	}
	if err := c.Validate(limits); err != nil {
		return err
	}
	if s.cfg.Admit == AdmitNone {
		return nil
	}
	ownPeriodic, ownSporadic := t.reservation()
	switch c.Type {
	case Aperiodic:
		return nil
	case Periodic:
		if s.cfg.Admit == AdmitSim {
			set := append(s.periodicSet(t), plan.Task{PeriodNs: c.PeriodNs, SliceNs: c.SliceNs})
			if v := plan.Analyze(s.k.admit, set); !v.Admit {
				return s.rejectAdmission(v.Reason.String(),
					fmt.Sprintf("plan.Analyze rejected the periodic set (util %.3f)", v.Utilization))
			}
			return nil
		}
		u := c.Utilization()
		if s.periodicUtil-ownPeriodic+u > s.periodicCap()+1e-12 {
			return s.rejectAdmission("util-cap",
				fmt.Sprintf("periodic util %.3f over cap %.3f",
					s.periodicUtil-ownPeriodic+u, s.periodicCap()))
		}
		return nil
	case Sporadic:
		u := c.Utilization()
		if s.sporadicUtil-ownSporadic+u > s.cfg.SporadicReservation+1e-12 {
			return s.rejectAdmission("sporadic-reservation",
				fmt.Sprintf("sporadic util %.3f over reservation %.3f",
					s.sporadicUtil-ownSporadic+u, s.cfg.SporadicReservation))
		}
		return nil
	}
	return ErrBadConstraints
}

// rejectAdmission builds the structured admission rejection, attaching the
// retry-after hint.
func (s *LocalScheduler) rejectAdmission(reason, detail string) error {
	return &AdmissionError{
		Reason:       reason,
		Detail:       detail,
		RetryAfterNs: s.retryAfterHintNs(s.nowNs(0)),
	}
}

// retryAfterHintNs estimates when capacity might free: the earliest
// deadline among the currently reserved real-time threads is the soonest
// instant an existing reservation can end (a sporadic burst completes, a
// periodic thread reaches a reshape boundary). Purely advisory — a backoff
// hint for rejected callers, never a guarantee.
func (s *LocalScheduler) retryAfterHintNs(nowNs int64) int64 {
	var best int64
	consider := func(t *Thread) {
		if t.cons.Type == Periodic || (t.cons.Type == Sporadic && t.isRTNow()) {
			if d := t.deadlineNs - nowNs; d > 0 && (best == 0 || d < best) {
				best = d
			}
		}
	}
	s.pending.All(consider)
	s.rtq.All(consider)
	if c := s.current; c != nil {
		consider(c)
	}
	if best == 0 {
		best = s.cfg.AperiodicQuantumNs
	}
	return best
}

// AdmitCurrent applies constraints to the currently running thread from
// within a Call action: on success for a real-time class the thread is
// parked to await its first arrival, and the enclosing action loop will
// re-enter the scheduler.
func (s *LocalScheduler) AdmitCurrent(t *Thread, c Constraints) error {
	if s.current != t || t.state != Running {
		return ErrThreadNotOnCPU
	}
	err := s.Admit(t, c, s.nowNs(0))
	if err == nil && c.Type != Aperiodic {
		t.state = PendingArrival
		s.mustPush(s.pending, t)
	}
	return err
}

// Admit performs local admission control for thread t requesting c, at
// wall-clock time nowNs, per Section 3.2: AdmitCheck, then, on success,
// the thread's old reservation is released, the new one added, and its
// schedule reset with admission time Gamma = nowNs. Aperiodic requests are
// always admitted. A rejection leaves the reservations untouched.
func (s *LocalScheduler) Admit(t *Thread, c Constraints, nowNs int64) error {
	if err := s.AdmitCheck(t, c); err != nil {
		return err
	}
	ownPeriodic, ownSporadic := t.reservation()
	s.periodicUtil -= ownPeriodic
	s.sporadicUtil -= ownSporadic
	switch c.Type {
	case Periodic:
		s.periodicUtil += c.Utilization()
	case Sporadic:
		s.sporadicUtil += c.Utilization()
	}
	t.resetSchedule(c, nowNs, s.clock.NanosToCycles)
	return nil
}

// reservation returns the periodic and sporadic utilization t's current
// constraints hold on its scheduler: a periodic thread always holds its
// share, a sporadic one only while its burst is real-time.
func (t *Thread) reservation() (periodic, sporadic float64) {
	switch t.cons.Type {
	case Periodic:
		return t.cons.Utilization(), 0
	case Sporadic:
		if t.isRTNow() {
			return 0, t.cons.Utilization()
		}
	}
	return 0, 0
}

// periodicCap returns the utilization available to periodic threads under
// the active admission policy. The cap is the boot-time utilization limit:
// the sporadic and aperiodic reservations guide how non-periodic classes
// are served when present (the scheduler is work-conserving), they are not
// subtracted from the admission cap — the paper's evaluation admits
// period/slice combinations up to 90% utilization under the default
// configuration (Figures 13-16).
func (s *LocalScheduler) periodicCap() float64 {
	cap := s.cfg.UtilizationLimit
	if s.cfg.Admit == AdmitRM {
		// Liu & Layland: n(2^(1/n)-1) of the available fraction.
		n := float64(len(s.periodicSet(nil)) + 1)
		cap *= n * (math.Pow(2, 1/n) - 1)
	}
	return cap
}

// exitThread finalizes t: releases reservations, detaches it from the CPU,
// and fires OnExit.
func (s *LocalScheduler) exitThread(t *Thread) {
	ownPeriodic, ownSporadic := t.reservation()
	s.periodicUtil = max(s.periodicUtil-ownPeriodic, 0)
	s.sporadicUtil = max(s.sporadicUtil-ownSporadic, 0)
	t.state = Exited
	t.cur = nil
	s.k.liveThreads--
	if t.stackAddr != 0 {
		s.k.reapStack(t.stackAddr)
		t.stackAddr = 0
	}
	if t.OnExit != nil {
		t.OnExit(t)
	}
}

// sleep parks the running thread t until wall-clock wallNs and re-enters
// the scheduler.
func (s *LocalScheduler) sleep(t *Thread, wallNs int64) {
	t.cur = nil
	t.state = Sleeping
	s.scheduleWake(t, wallNs)
	s.invoke(ReasonThread, s.k.Eng.Now())
}

// scheduleWake arms a wake event for a sleeping thread at wall-clock ns.
func (s *LocalScheduler) scheduleWake(t *Thread, wallNs int64) {
	delta := wallNs - s.nowNs(0)
	if delta < 0 {
		delta = 0
	}
	cycles := s.clock.NanosToCycles(delta)
	s.k.Eng.AfterPayload(sim.Duration(cycles), sim.Hard, wakeDue, t, 0)
}

// wakeDue fires a sleeping thread's wake event; ref is the thread. A
// thread woken early by someone else is left alone.
func wakeDue(_ sim.Time, ref any, _ uint64) {
	if t := ref.(*Thread); t.state == Sleeping {
		t.k.Wake(t)
	}
}
