package core

// Graceful degradation (robustness layer). When faults — SMI storms, timer
// loss, interference — push an admitted task set over the edge, threads
// would otherwise miss every deadline forever: admission control ran at
// admission time and nothing revisits the verdict. The degradation layer
// closes that loop: per-thread miss-streak detection feeds a configurable
// shed policy, groups are shed atomically (Algorithm 1's all-or-nothing
// property applied in reverse), and a supervisor retries re-admission of
// shed threads under exponential backoff once conditions recover.

import "hrtsched/internal/sim"

// DegradeEvent records one shed applied to a thread.
type DegradeEvent struct {
	Policy DegradePolicy
	Streak int // miss streak that triggered the shed
	Cohort int // size of the atomically shed cohort (1 for lone threads)
	// OldCons are the original constraints, preserved across repeated sheds
	// so the re-admission supervisor restores the thread fully.
	OldCons Constraints
	NewCons Constraints
	Evicted bool // thread was parked; only re-admission or Wake revives it
	NowNs   int64
}

// DegradeStats aggregates the degradation layer's activity on a kernel.
type DegradeStats struct {
	Sheds           int64 // threads shed (cohort members counted singly)
	Cohorts         int64 // shed operations (a whole group counts once)
	Demoted         int64
	Shrunk          int64
	Evicted         int64
	ReadmitAttempts int64
	Readmitted      int64
	ReadmitGaveUp   int64
}

// Degradation returns the kernel-wide degradation counters.
func (k *Kernel) Degradation() DegradeStats { return k.degradeStats }

// applyDegrade runs inside a scheduler pass, after queue state has been
// brought current: any periodic thread whose miss streak crossed the
// threshold is shed together with its group cohort.
func (s *LocalScheduler) applyDegrade(nowNs int64) {
	thr := s.cfg.Degrade.streak()
	var victims []*Thread
	collect := func(t *Thread) {
		if t.cons.Type == Periodic && t.missStreak >= thr {
			victims = append(victims, t)
		}
	}
	// Collect first, mutate after: the heaps must not change mid-iteration.
	s.rtq.All(collect)
	s.pending.All(collect)
	if c := s.current; c != nil && c.state == Running {
		collect(c)
	}
	for _, t := range victims {
		// An earlier victim's cohort may have already shed this one.
		if t.state == Exited || t.cons.Type != Periodic || t.missStreak < thr {
			continue
		}
		s.k.shedCohort(t, nowNs)
	}
}

// shedCohort sheds t and, when a group resolver is installed, every member
// of t's group — atomically: one policy, applied to all members in one
// step, so a group is never left partially real-time (Section 4's
// admission is all-or-nothing; so is its revocation).
func (k *Kernel) shedCohort(t *Thread, nowNs int64) {
	dc := k.Cfg.Degrade
	cohort := []*Thread{t}
	if k.GroupResolver != nil {
		if ms := k.GroupResolver(t); len(ms) > 0 {
			cohort = ms
		}
	}
	policy := dc.Policy
	if policy == DegradeShrink {
		// Shrink only if every member stays above the slice floor;
		// otherwise demote the whole cohort so it stays uniform.
		for _, m := range cohort {
			if m.state == Exited || m.cons.Type != Periodic {
				continue
			}
			if m.cons.SliceNs*shrinkPct/100 < k.Locals[m.cpu].cfg.Limits.MinSliceNs {
				policy = DegradeDemote
				break
			}
		}
	}
	shedAny := false
	for _, m := range cohort {
		if m.state == Exited || m.cons.Type != Periodic {
			continue
		}
		k.Locals[m.cpu].degradeOne(m, nowNs, len(cohort), policy)
		shedAny = true
	}
	if !shedAny {
		return
	}
	k.degradeStats.Cohorts++
	if dc.Readmit {
		// Backoff compounds across flaps: a thread that gets re-admitted
		// and then shed again restarts at its lifetime shed count, so a
		// persistent fault eventually parks it for good instead of letting
		// it flap forever.
		attempt := t.shedCount - 1
		if attempt >= dc.maxAttempts() {
			k.degradeStats.ReadmitGaveUp++
		} else {
			k.scheduleReadmit(t, attempt)
		}
	}
}

// degradeOne applies policy to one periodic thread on its own scheduler.
func (s *LocalScheduler) degradeOne(t *Thread, nowNs int64, cohort int, policy DegradePolicy) {
	old := t.cons
	orig := old
	if t.degraded {
		orig = t.lastDegrade.OldCons
	}
	ev := DegradeEvent{Policy: policy, Streak: t.missStreak, Cohort: cohort,
		OldCons: orig, NowNs: nowNs}

	switch policy {
	case DegradeShrink:
		cons := old
		cons.SliceNs = old.SliceNs * shrinkPct / 100
		s.periodicUtil -= old.Utilization()
		if s.periodicUtil < 0 {
			s.periodicUtil = 0
		}
		t.cons = cons
		s.periodicUtil += cons.Utilization()
		if max := s.clock.NanosToCycles(cons.SliceNs); t.sliceRemCycles > max {
			t.sliceRemCycles = max
		}
		t.debtCycles = 0
		s.k.degradeStats.Shrunk++
		ev.NewCons = cons
	case DegradeDemote, DegradeEvict:
		s.periodicUtil -= old.Utilization()
		if s.periodicUtil < 0 {
			s.periodicUtil = 0
		}
		if s.rtq.Contains(t) {
			s.rtq.Remove(t)
		} else if s.pending.Contains(t) {
			s.pending.Remove(t)
		}
		t.cons = AperiodicConstraints(old.Priority)
		t.debtCycles = 0
		t.sliceRemCycles = 0
		switch {
		case t == s.current && t.state == Running:
			// The running thread keeps the CPU as an aperiodic thread;
			// eviction of a running thread falls back to demotion (it can
			// only park at its next own action).
			s.quantumEndNs = nowNs + s.cfg.AperiodicQuantumNs
		case policy == DegradeEvict:
			if t.state != Blocked && t.state != Sleeping {
				t.state = Blocked
			}
			ev.Evicted = true
		default:
			if t.state == RunnableRT || t.state == PendingArrival {
				t.state = RunnableAper
				s.rrCounter++
				t.rrSeq = s.rrCounter
				s.mustPush(s.aperq, t)
			}
			// Blocked or sleeping threads just carry the new class.
		}
		if policy == DegradeEvict {
			s.k.degradeStats.Evicted++
		} else {
			s.k.degradeStats.Demoted++
		}
		ev.NewCons = t.cons
	default:
		return
	}
	t.missStreak = 0
	t.degraded = true
	t.shedCount++
	t.lastDegrade = ev
	s.k.degradeStats.Sheds++
	if s.k.Hooks.Degrade != nil {
		s.k.Hooks.Degrade(s.cpu.ID(), t, ev)
	}
	s.k.Kick(s.cpu.ID())
}

// scheduleReadmit arms the re-admission supervisor for the cohort anchored
// at t: attempt k fires after base << k, base defaulting to four of the
// thread's original periods.
func (k *Kernel) scheduleReadmit(t *Thread, attempt int) {
	dc := k.Cfg.Degrade
	base := dc.ReadmitAfterNs
	if base <= 0 {
		base = 4 * t.lastDegrade.OldCons.PeriodNs
	}
	if base <= 0 {
		base = 100_000_000
	}
	shift := uint(attempt)
	if shift > 16 {
		shift = 16
	}
	s := k.Locals[t.cpu]
	delay := s.clock.NanosToCycles(base << shift)
	if delay < 1 {
		delay = 1
	}
	k.Eng.AfterPayload(sim.Duration(delay), sim.Hard, readmitDue, t, uint64(attempt))
}

// readmitDue fires a re-admission attempt: ref is the cohort's anchor
// thread, arg the attempt number.
func readmitDue(_ sim.Time, ref any, attempt uint64) {
	t := ref.(*Thread)
	t.k.tryReadmit(t, int(attempt))
}

// tryReadmit attempts to restore the shed cohort to its original
// constraints, all-or-nothing: members are admitted sequentially and every
// installed member is rolled back to its shed state if any later member is
// rejected. On failure the supervisor backs off exponentially up to the
// configured attempt bound.
func (k *Kernel) tryReadmit(t *Thread, attempt int) {
	dc := k.Cfg.Degrade
	if t.state == Exited || !t.degraded {
		return
	}
	k.degradeStats.ReadmitAttempts++
	retry := func() {
		if attempt+1 >= dc.maxAttempts() {
			k.degradeStats.ReadmitGaveUp++
			return
		}
		k.scheduleReadmit(t, attempt+1)
	}
	cohort := []*Thread{t}
	if k.GroupResolver != nil {
		if ms := k.GroupResolver(t); len(ms) > 0 {
			cohort = ms
		}
	}
	var members []*Thread
	for _, m := range cohort {
		if m.state == Exited || !m.degraded {
			continue
		}
		switch m.state {
		case Running, Sleeping:
			// Never reshape a thread that is on a CPU or owns a wake event;
			// the whole cohort waits for a quieter moment.
			retry()
			return
		case Blocked:
			if !m.lastDegrade.Evicted {
				// Blocked for its own reasons (a barrier, say): forcing an
				// arrival would fabricate a spurious wakeup.
				retry()
				return
			}
		}
		members = append(members, m)
	}
	if len(members) == 0 {
		return
	}
	var installed []*Thread
	ok := true
	for _, m := range members {
		s := k.Locals[m.cpu]
		prev := m.state
		s.detachQueued(m)
		if err := s.Admit(m, m.lastDegrade.OldCons, s.nowNs(0)); err != nil {
			// Admit left constraints and reservations untouched on failure;
			// just put the thread back where it was.
			s.reattachQueued(m, prev)
			ok = false
			break
		}
		m.state = PendingArrival
		s.mustPush(s.pending, m)
		installed = append(installed, m)
	}
	if !ok {
		for _, m := range installed {
			s := k.Locals[m.cpu]
			s.pending.Remove(m)
			// Re-admitting the shed constraints releases the just-restored
			// reservation for something strictly smaller, so it cannot fail.
			if err := s.Admit(m, m.lastDegrade.NewCons, s.nowNs(0)); err != nil {
				panic("core: rollback to shed constraints rejected: " + err.Error())
			}
			switch {
			case m.lastDegrade.NewCons.Type == Periodic:
				m.state = PendingArrival
				s.mustPush(s.pending, m)
			case m.lastDegrade.Evicted:
				m.state = Blocked
			default:
				m.state = RunnableAper
				s.rrCounter++
				m.rrSeq = s.rrCounter
				s.mustPush(s.aperq, m)
			}
		}
		retry()
		return
	}
	for _, m := range installed {
		m.degraded = false
		m.missStreak = 0
		k.degradeStats.Readmitted++
		if k.Hooks.Readmit != nil {
			k.Hooks.Readmit(m.cpu, m, k.Locals[m.cpu].nowNs(0))
		}
		k.Kick(m.cpu)
	}
}

// detachQueued removes t from whichever run queue holds it, if any.
func (s *LocalScheduler) detachQueued(t *Thread) {
	switch {
	case s.rtq.Contains(t):
		s.rtq.Remove(t)
	case s.pending.Contains(t):
		s.pending.Remove(t)
	case s.aperq.Contains(t):
		s.aperq.Remove(t)
	}
}

// reattachQueued undoes detachQueued for a thread whose state is unchanged.
func (s *LocalScheduler) reattachQueued(t *Thread, state ThreadState) {
	switch state {
	case RunnableRT:
		s.mustPush(s.rtq, t)
	case PendingArrival:
		s.mustPush(s.pending, t)
	case RunnableAper:
		s.mustPush(s.aperq, t)
	}
}
