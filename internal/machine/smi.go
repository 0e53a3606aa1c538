package machine

import "hrtsched/internal/sim"

// SMIController injects system management interrupts: global stop-the-world
// events during which no software runs on any CPU while every cycle counter
// keeps advancing — "missing time" (Section 3.6). The firmware's SMI
// schedule is invisible to the kernel; only its effects are observable.
type SMIController struct {
	mach    *Machine
	rng     sim.Rand
	ev      *sim.Event // persistent injection event, re-armed per gap
	enabled bool
	count   int64
	total   sim.Duration
	// Observers for experiments that need ground truth (never used by the
	// scheduler itself).
	onSMI []func(at sim.Time, d sim.Duration)
}

// reset reseeds the controller from the machine's root stream and, if the
// spec asks for SMIs, re-enables injection. The persistent injection event
// (idle after the engine's reset) and the observer slice's storage are kept.
func (s *SMIController) reset() {
	clear(s.onSMI)
	*s = SMIController{mach: s.mach, ev: s.ev, onSMI: s.onSMI[:0]}
	s.mach.rng.SplitInto(&s.rng)
	if s.mach.Spec.MeanSMIGapCycles > 0 {
		s.Enable()
	}
}

// Enable starts SMI injection using the spec's gap and duration model:
// exponentially distributed gaps with the configured mean, uniform jitter
// on the duration. Calling Enable twice is a no-op.
func (s *SMIController) Enable() {
	if s.enabled {
		return
	}
	if s.mach.Spec.MeanSMIGapCycles <= 0 {
		s.mach.Spec.MeanSMIGapCycles = 40_000_000 // ~30 ms at 1.3 GHz
	}
	s.enabled = true
	s.scheduleNext()
}

// Enabled reports whether SMIs are being injected.
func (s *SMIController) Enabled() bool { return s.enabled }

// Count returns the number of SMIs that have fired.
func (s *SMIController) Count() int64 { return s.count }

// TotalMissingTime returns the cumulative duration stolen by SMIs.
func (s *SMIController) TotalMissingTime() sim.Duration { return s.total }

// Observe registers a ground-truth callback invoked at each SMI.
func (s *SMIController) Observe(fn func(at sim.Time, d sim.Duration)) {
	s.onSMI = append(s.onSMI, fn)
}

// InjectAt forces a single SMI of duration d at absolute time at,
// regardless of whether periodic injection is enabled. Used by failure-
// injection tests and the eager-vs-lazy ablation.
func (s *SMIController) InjectAt(at sim.Time, d sim.Duration) {
	s.mach.Eng.SchedulePayload(at, sim.Hard, smiDue, s, uint64(d))
}

// smiDue fires an SMI forced by InjectAt: ref is the controller, arg the
// duration.
func smiDue(now sim.Time, ref any, d uint64) {
	ref.(*SMIController).fire(now, sim.Duration(d))
}

// InjectNow fires a single SMI of duration d at the current instant. It is
// the entry point for external fault injectors (internal/fault) that drive
// their own arrival processes rather than the controller's Poisson model.
func (s *SMIController) InjectNow(d sim.Duration) {
	s.fire(s.mach.Eng.Now(), d)
}

func (s *SMIController) fire(now sim.Time, d sim.Duration) {
	s.count++
	s.total += d
	s.mach.Eng.Freeze(d)
	for _, fn := range s.onSMI {
		fn(now, d)
	}
}

func (s *SMIController) scheduleNext() {
	if s.ev == nil {
		// One persistent event drives the Poisson injection chain; each
		// firing re-arms it in place for the next gap.
		s.ev = s.mach.Eng.NewEvent(sim.Hard, func(now sim.Time) {
			if !s.enabled {
				return
			}
			d := s.mach.Spec.SMIDurationCycles
			if j := s.mach.Spec.SMIDurationJitter; j > 0 {
				d += s.rng.Range(-j, j)
			}
			if d < 0 {
				d = 0
			}
			s.fire(now, sim.Duration(d))
			s.scheduleNext()
		})
	}
	gap := sim.Duration(float64(s.mach.Spec.MeanSMIGapCycles) * s.rng.ExpFloat64())
	if gap < 1 {
		gap = 1
	}
	s.ev.RescheduleAfter(gap)
}
