package core

// Hyperperiod-simulation admission control — the "more sophisticated
// admission control" prototype Section 3.2 describes: because admission
// runs in the context of the requesting thread, it can afford to simulate
// the local scheduler for a hyperperiod. The decision procedure itself —
// EDF over one hyperperiod, charging the scheduler's per-invocation
// overhead (two interrupts per period, Section 5.3), with conservative
// rejection on hyperperiod overflow or step-bound exhaustion — is
// plan.Analyze, the verdict /v1/analyze answers, asked by AdmitCheck
// under the boot's spec (Kernel.admit); this file only collects the
// scheduler's currently admitted periodic set.

import "hrtsched/internal/plan"

// periodicSet collects the periodic tasks currently admitted on this
// scheduler, excluding (optionally) one thread being re-admitted.
func (s *LocalScheduler) periodicSet(exclude *Thread) plan.TaskSet {
	var out plan.TaskSet
	add := func(t *Thread) {
		if t != exclude && t.cons.Type == Periodic {
			out = append(out, plan.Task{PeriodNs: t.cons.PeriodNs, SliceNs: t.cons.SliceNs})
		}
	}
	s.pending.All(add)
	s.rtq.All(add)
	if s.current != nil {
		add(s.current)
	}
	return out
}
