// Package core implements the paper's primary contribution: the hard
// real-time scheduler of Section 3. Each CPU runs an independent local
// scheduler — an eager earliest-deadline-first engine with a pending queue,
// a real-time run queue and a non-real-time run queue — and the global
// scheduler is nothing more than the loosely-coupled collection of local
// schedulers coordinating through a shared notion of wall-clock time.
package core

import (
	"errors"
	"fmt"
)

// ConstraintType selects the timing-constraint class of Section 3.1,
// following Liu's model.
type ConstraintType uint8

const (
	// Aperiodic threads have no real-time constraints, only a priority.
	// Newly created threads begin life in this class.
	Aperiodic ConstraintType = iota
	// Periodic threads have (phase, period, slice): first arrival at
	// admission+phase, then every period, with slice guaranteed per period.
	Periodic
	// Sporadic threads have (phase, size, deadline, priority): one
	// guaranteed burst of size before the deadline, then aperiodic life.
	Sporadic
)

// String returns the class name.
func (t ConstraintType) String() string {
	switch t {
	case Aperiodic:
		return "aperiodic"
	case Periodic:
		return "periodic"
	case Sporadic:
		return "sporadic"
	default:
		return fmt.Sprintf("ConstraintType(%d)", uint8(t))
	}
}

// Constraints is the admission-control interface of the scheduler. All
// times are nanoseconds of wall-clock time held in int64, as in the paper.
type Constraints struct {
	Type ConstraintType

	// Priority orders aperiodic threads (lower value = more important).
	// For sporadic threads it is the priority of their aperiodic afterlife.
	Priority uint32

	// PhaseNs delays the first arrival relative to the admission time.
	PhaseNs int64

	// PeriodNs and SliceNs define a periodic thread (tau and sigma).
	PeriodNs int64
	SliceNs  int64

	// SizeNs and DeadlineNs define a sporadic thread: SizeNs of execution
	// guaranteed before admission time + DeadlineNs.
	SizeNs     int64
	DeadlineNs int64
}

// AperiodicConstraints returns the default constraints every thread starts
// with, and the fallback used when group admission fails (Algorithm 1).
func AperiodicConstraints(priority uint32) Constraints {
	return Constraints{Type: Aperiodic, Priority: priority}
}

// PeriodicConstraints builds a periodic constraint set.
func PeriodicConstraints(phaseNs, periodNs, sliceNs int64) Constraints {
	return Constraints{Type: Periodic, PhaseNs: phaseNs, PeriodNs: periodNs, SliceNs: sliceNs}
}

// SporadicConstraints builds a sporadic constraint set.
func SporadicConstraints(phaseNs, sizeNs, deadlineNs int64, prio uint32) Constraints {
	return Constraints{Type: Sporadic, PhaseNs: phaseNs, SizeNs: sizeNs,
		DeadlineNs: deadlineNs, Priority: prio}
}

// Utilization returns slice/period for periodic constraints and
// size/deadline for sporadic ones; aperiodic threads have zero reserved
// utilization.
func (c Constraints) Utilization() float64 {
	switch c.Type {
	case Periodic:
		if c.PeriodNs <= 0 {
			return 0
		}
		return float64(c.SliceNs) / float64(c.PeriodNs)
	case Sporadic:
		if c.DeadlineNs <= 0 {
			return 0
		}
		return float64(c.SizeNs) / float64(c.DeadlineNs)
	default:
		return 0
	}
}

// Errors returned by constraint validation and admission control.
var (
	ErrBadConstraints  = errors.New("core: malformed constraints")
	ErrTooFine         = errors.New("core: constraints below platform granularity")
	ErrAdmission       = errors.New("core: admission control rejected constraints")
	ErrTooManyThreads  = errors.New("core: compile-time thread limit reached")
	ErrThreadNotOnCPU  = errors.New("core: thread is not bound where expected")
	ErrSchedulerClosed = errors.New("core: scheduler is shut down")
)

// AdmissionError is the structured rejection produced by admission control:
// a stable machine-readable reason, human-readable detail, and a hint for
// when the same request might plausibly succeed. It unwraps to
// ErrAdmission, so errors.Is(err, ErrAdmission) keeps working.
type AdmissionError struct {
	// Reason is a stable tag: "util-cap" or "sporadic-reservation" from
	// the utilization bounds, or under AdmitSim the plan.Reason tag of the
	// rejecting verdict ("util-cap", "hyperperiod-miss" or
	// "checkpoint-budget").
	Reason string
	Detail string
	// RetryAfterNs estimates when capacity might free (the earliest
	// deadline of an existing reservation); 0 means no basis for a hint.
	RetryAfterNs int64
}

// Error renders the rejection with its reason and retry hint.
func (e *AdmissionError) Error() string {
	msg := ErrAdmission.Error() + ": " + e.Reason
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	if e.RetryAfterNs > 0 {
		msg += fmt.Sprintf(" (retry after %dns)", e.RetryAfterNs)
	}
	return msg
}

// Unwrap ties the structured error to the ErrAdmission sentinel.
func (e *AdmissionError) Unwrap() error { return ErrAdmission }

// Validate checks structural sanity and, when limits is non-nil, the
// platform granularity bounds of Section 3.3 ("bounds are also placed on
// the granularity and minimum size of the timing constraints").
func (c Constraints) Validate(limits *Limits) error {
	switch c.Type {
	case Aperiodic:
		return nil
	case Periodic:
		if c.PeriodNs <= 0 || c.SliceNs <= 0 || c.SliceNs > c.PeriodNs || c.PhaseNs < 0 {
			return fmt.Errorf("%w: periodic phase=%d period=%d slice=%d",
				ErrBadConstraints, c.PhaseNs, c.PeriodNs, c.SliceNs)
		}
		if limits != nil {
			if c.PeriodNs < limits.MinPeriodNs {
				return fmt.Errorf("%w: period %dns < minimum %dns",
					ErrTooFine, c.PeriodNs, limits.MinPeriodNs)
			}
			if c.SliceNs < limits.MinSliceNs {
				return fmt.Errorf("%w: slice %dns < minimum %dns",
					ErrTooFine, c.SliceNs, limits.MinSliceNs)
			}
		}
		return nil
	case Sporadic:
		if c.SizeNs <= 0 || c.DeadlineNs <= 0 || c.SizeNs > c.DeadlineNs || c.PhaseNs < 0 {
			return fmt.Errorf("%w: sporadic phase=%d size=%d deadline=%d",
				ErrBadConstraints, c.PhaseNs, c.SizeNs, c.DeadlineNs)
		}
		if limits != nil && c.SizeNs < limits.MinSliceNs {
			return fmt.Errorf("%w: size %dns < minimum %dns",
				ErrTooFine, c.SizeNs, limits.MinSliceNs)
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown type %d", ErrBadConstraints, c.Type)
	}
}

// Limits bounds the constraints a local scheduler will consider, limiting
// the possible scheduler invocation rate so that scheduler overhead can be
// folded into the boot-time utilization limit.
type Limits struct {
	MinPeriodNs int64
	MinSliceNs  int64
}
