package core

import "hrtsched/internal/sim"

// Program is the body of a thread. The scheduler drives it by asking for
// the next Action whenever the previous one completes; between calls the
// thread may be preempted, blocked and migrated without the program
// noticing, exactly like a real instruction stream.
//
// Programs run inside a deterministic simulation, so they must not consume
// real-world entropy or time; use ThreadCtx's clock and RNG.
type Program interface {
	Next(tc *ThreadCtx) Action
}

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc func(tc *ThreadCtx) Action

// Next calls f.
func (f ProgramFunc) Next(tc *ThreadCtx) Action { return f(tc) }

// Action is one step of a thread's execution. The concrete types below are
// the full set. Compute and SleepUntil may also be handed over by pointer
// (*Compute, *SleepUntil): the scheduler reads the pointee when Next
// returns it, so a program can keep one such value and rewrite it for
// every call instead of boxing a fresh one into the interface each time.
type Action interface{ isAction() }

// Compute consumes the given number of CPU cycles. It is the only action
// that takes time; everything else is an instantaneous control transfer.
type Compute struct{ Cycles int64 }

// Exit terminates the thread.
type Exit struct{}

// Yield invokes the local scheduler without blocking; the thread stays
// runnable (an aperiodic thread goes to the back of its priority level).
type Yield struct{}

// SleepUntil blocks the thread until the given wall-clock time (ns).
type SleepUntil struct{ WallNs int64 }

// Block parks the thread until some other agent calls Kernel.Wake on it.
// Waiter registration (e.g. adding itself to a barrier's list) must already
// have happened in a preceding Call action.
type Block struct{}

// Call runs fn instantaneously in thread context and then asks the program
// for the next action. It is how programs touch shared state (group
// structures, BSP neighbor vectors) at a well-defined simulated instant.
// Model any associated cost as an explicit preceding Compute.
type Call struct{ Fn func(tc *ThreadCtx) }

// ChangeConstraints performs individual admission control, consuming the
// platform's admission cost in thread context (Section 3.2: "admission
// control runs in the context of the thread requesting admission"). The
// verdict is delivered through ThreadCtx.AdmitOK before the program's next
// Next call.
type ChangeConstraints struct{ C Constraints }

func (Compute) isAction()           {}
func (Exit) isAction()              {}
func (Yield) isAction()             {}
func (SleepUntil) isAction()        {}
func (Block) isAction()             {}
func (Call) isAction()              {}
func (ChangeConstraints) isAction() {}

// ThreadCtx is the execution context handed to a Program. It is only valid
// during the Next or Call invocation it is passed to: each thread owns one
// context, which the scheduler rewrites for every call, so a program must
// copy out what it needs rather than keep the pointer.
type ThreadCtx struct {
	K     *Kernel
	T     *Thread
	CPU   int
	NowNs int64 // wall-clock estimate of the thread's current CPU
	Rand  *sim.Rand
	// AdmitOK reports the verdict of the most recent ChangeConstraints
	// action (true = admitted).
	AdmitOK bool
	// AdmitErr carries the rejection reason when AdmitOK is false.
	AdmitErr error
}

// Seq returns a Program that executes the given actions once, in order,
// then exits. Useful for tests and simple workloads.
func Seq(actions ...Action) Program {
	i := 0
	return ProgramFunc(func(tc *ThreadCtx) Action {
		if i >= len(actions) {
			return Exit{}
		}
		a := actions[i]
		i++
		return a
	})
}

// Loop returns a Program that repeats body(iter, tc) until it returns nil,
// then exits. body is called once per action, with iter counting actions
// delivered so far.
func Loop(body func(iter int, tc *ThreadCtx) Action) Program {
	i := 0
	return ProgramFunc(func(tc *ThreadCtx) Action {
		a := body(i, tc)
		i++
		if a == nil {
			return Exit{}
		}
		return a
	})
}
