package core

// InvariantChecker is the opt-in "black box recorder" for the scheduler:
// attached through Hooks.Pass it validates, on every scheduler pass, that
// the EDF run queue is correctly ordered, admitted utilization respects the
// configured limits, each CPU's TSC-derived clock never runs backwards, and
// the cycle ledger conserves time (compute + idle + overhead + missing ==
// wall). Every violation is recorded with the engine's event count, so a
// failing run collapses to a one-line deterministic repro: replaying the
// same seed and scenario up to that event reproduces the violation
// bit-identically (the whole simulation derives from one splittable RNG).

import (
	"fmt"
	"strings"
)

// Violation is one invariant failure. All fields derive from simulation
// state only — never host time or map order — so reports are deterministic.
type Violation struct {
	// Event is the engine step count at which the violation was observed;
	// it is the -until-event operand of the repro line.
	Event  uint64
	CPU    int
	Check  string // "edf-order" | "arrival-order" | "util-cap" | "tsc-monotone" | "conservation"
	Detail string
}

// String renders the violation as one deterministic line.
func (v Violation) String() string {
	return fmt.Sprintf("invariant violation: check=%s cpu=%d event=%d %s",
		v.Check, v.CPU, v.Event, v.Detail)
}

// InvariantChecker validates scheduler invariants every pass. Zero overhead
// when not attached; deterministic when it is.
type InvariantChecker struct {
	k        *Kernel
	seed     uint64
	scenario string

	// SlackCycles absorbs benign attribution gaps in the conservation
	// check. The ledger is conservative — interrupted work is left to the
	// idle residual, never double counted — so a residual more negative
	// than this slack is a genuine accounting bug.
	SlackCycles int64
	// MaxViolations caps recording; checking continues but further
	// violations are dropped so a hot failure cannot swamp memory.
	MaxViolations int

	passes     int64
	lastCycles []int64
	violations []Violation
	check      func(cpu int, s *LocalScheduler, nowNs int64) // c.checkPass, bound once
}

// AttachInvariants installs a checker on k via Hooks.Pass, chaining any
// hook already present. seed and scenario caption the repro line printed
// for violations.
func AttachInvariants(k *Kernel, seed uint64, scenario string) *InvariantChecker {
	c := new(InvariantChecker)
	c.Reattach(k, seed, scenario)
	return c
}

// Reattach makes c the checker AttachInvariants(k, seed, scenario) would
// return — default slack and cap, no passes, no violations — reusing its
// per-CPU clock and violation storage. Slices returned by an earlier
// Violations call are invalid afterwards. k is typically a kernel just
// rebooted (Kernel.Reboot clears its hooks); on a kernel c is already
// attached to, the checks would run twice per pass.
func (c *InvariantChecker) Reattach(k *Kernel, seed uint64, scenario string) {
	lastCycles := c.lastCycles[:0]
	for range k.NumCPUs() {
		lastCycles = append(lastCycles, -(1 << 62))
	}
	*c = InvariantChecker{
		k:             k,
		seed:          seed,
		scenario:      scenario,
		SlackCycles:   4096,
		MaxViolations: 64,
		lastCycles:    lastCycles,
		violations:    c.violations[:0],
		check:         c.check,
	}
	if c.check == nil {
		c.check = c.checkPass
	}
	prev := k.Hooks.Pass
	if prev == nil {
		k.Hooks.Pass = c.check
		return
	}
	k.Hooks.Pass = func(cpu int, s *LocalScheduler, nowNs int64) {
		prev(cpu, s, nowNs)
		c.checkPass(cpu, s, nowNs)
	}
}

// Passes returns how many scheduler passes have been checked.
func (c *InvariantChecker) Passes() int64 { return c.passes }

// Violations returns the recorded violations in observation order.
func (c *InvariantChecker) Violations() []Violation { return c.violations }

// Ok reports whether no invariant has been violated.
func (c *InvariantChecker) Ok() bool { return len(c.violations) == 0 }

// ReproLine returns the deterministic one-line replay command for v: the
// chaos CLI under the same seed and scenario, stopped at the offending
// event, reproduces the identical report.
func (c *InvariantChecker) ReproLine(v Violation) string {
	return fmt.Sprintf("cmd/chaos -seed %d -scenario %s -until-event %d",
		c.seed, c.scenario, v.Event)
}

// Report renders every recorded violation with its repro line.
func (c *InvariantChecker) Report() string {
	var b strings.Builder
	for _, v := range c.violations {
		b.WriteString(v.String())
		b.WriteString("\n    repro: ")
		b.WriteString(c.ReproLine(v))
		b.WriteByte('\n')
	}
	return b.String()
}

func (c *InvariantChecker) checkPass(cpu int, s *LocalScheduler, _ int64) {
	c.passes++
	ev := c.k.Eng.Steps()

	// EDF order: the run queues must be valid min-heaps with consistent
	// position indices.
	if d := heapDefect(s.rtq, byDeadline); d != "" {
		c.record(ev, cpu, "edf-order", d)
	}
	if d := heapDefect(s.pending, byArrival); d != "" {
		c.record(ev, cpu, "arrival-order", d)
	}

	// Admitted utilization within limits. With admission control disabled
	// the limit is deliberately not enforced (Figures 6-9 study exactly
	// that), but the tallies must still be sane.
	if s.periodicUtil < -1e-9 || s.sporadicUtil < -1e-9 {
		c.record(ev, cpu, "util-cap", fmt.Sprintf(
			"negative admitted utilization: periodic=%.9f sporadic=%.9f",
			s.periodicUtil, s.sporadicUtil))
	} else if s.cfg.Admit == AdmitEDF || s.cfg.Admit == AdmitRM {
		if s.periodicUtil > s.cfg.UtilizationLimit+1e-9 {
			c.record(ev, cpu, "util-cap", fmt.Sprintf(
				"periodic util %.9f over limit %.9f",
				s.periodicUtil, s.cfg.UtilizationLimit))
		}
		if s.sporadicUtil > s.cfg.SporadicReservation+1e-9 {
			c.record(ev, cpu, "util-cap", fmt.Sprintf(
				"sporadic util %.9f over reservation %.9f",
				s.sporadicUtil, s.cfg.SporadicReservation))
		}
	}

	// Per-CPU clock monotonicity (a TSC re-skew below the software offset
	// shows up here).
	nc := s.clock.NowCycles()
	if nc < c.lastCycles[cpu] {
		c.record(ev, cpu, "tsc-monotone", fmt.Sprintf(
			"clock cycles went backwards: %d after %d", nc, c.lastCycles[cpu]))
	}
	c.lastCycles[cpu] = nc

	// Accounting conservation: idle is the residual of
	// wall == busy + overhead + irq-window + inline + missing + idle,
	// so the checkable claim is that nothing was attributed twice.
	led := s.Ledger()
	if led.IdleCycles < -c.SlackCycles {
		c.record(ev, cpu, "conservation", fmt.Sprintf(
			"attributed cycles exceed wall: idle=%d wall=%d missing=%d busy=%d overhead=%d irqwin=%d inline=%d",
			led.IdleCycles, led.WallCycles, led.MissingCycles, led.BusyCycles,
			led.OverheadCycles, led.IRQWindowCycles, led.InlineCycles))
	}
}

func (c *InvariantChecker) record(ev uint64, cpu int, check, detail string) {
	if len(c.violations) >= c.MaxViolations {
		return
	}
	c.violations = append(c.violations, Violation{Event: ev, CPU: cpu, Check: check, Detail: detail})
}

// heapDefect validates the heap property and index bookkeeping of a run
// queue, returning a deterministic description of the first defect found.
func heapDefect(h *threadHeap, less threadOrder) string {
	for i, t := range h.items {
		if t.qIdx != i {
			return fmt.Sprintf("thread %d records index %d but sits at %d", t.id, t.qIdx, i)
		}
		if i > 0 {
			p := (i - 1) / 2
			if less(t, h.items[p]) {
				return fmt.Sprintf("thread %d at index %d orders before its parent (thread %d)",
					t.id, i, h.items[p].id)
			}
		}
	}
	return ""
}
