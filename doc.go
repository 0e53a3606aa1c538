// Package hrtsched is a reproduction, as a Go library, of "Hard Real-time
// Scheduling for Parallel Run-time Systems" (Dinda, Wang, Wang, Beauchene,
// Hetland — HPDC 2018): a hard real-time scheduler for node-level parallel
// systems, built in the Nautilus hybrid run-time kernel framework and
// evaluated on the Intel Xeon Phi.
//
// Because a garbage-collected Go runtime cannot itself be a bare-metal hard
// real-time kernel, the library reimplements the paper's entire software
// stack — the per-CPU eager-EDF local schedulers, admission control with
// utilization limits and reservations, thread groups with distributed
// admission and phase correction, tasks, work stealing, and the BSP
// microbenchmark — on top of a deterministic, cycle-resolution simulation
// of the hardware platform (TSCs with boot skew, APIC one-shot timers,
// IPIs, steerable device interrupts, and SMI "missing time"). Every
// algorithm is the paper's; only the physics is simulated. See DESIGN.md
// for the substitution table and EXPERIMENTS.md for paper-vs-measured
// results on every figure.
//
// This package is a small facade over the internal packages: the
// simulated platform and kernel, thread groups, the BSP benchmark, cyclic
// executives, the OpenMP- and Legion-like run-times, offline admission
// analysis, and the admission-query service.
//
//	spec := hrtsched.PhiKNL()
//	m := hrtsched.NewMachine(spec, 42)
//	k := hrtsched.Boot(m, hrtsched.DefaultConfig(spec))
//	th := k.Spawn("worker", 1, hrtsched.ProgramFunc(func(tc *hrtsched.ThreadCtx) hrtsched.Action {
//	    return hrtsched.Compute{Cycles: 20_000}
//	}))
//	k.RunNs(50_000_000)
//
// # Constructors and cancellation
//
// A constructor that can fail validates its arguments and returns
// (*X, error); infallible constructors (NewMachine, NewBSP) return the
// value alone. Service methods that can queue, block, or shed take a
// context.Context and carry the Context suffix (AnalyzeContext,
// CapacityContext, AnalyzeBatchContext); a batched form answers each item
// bit-identically to its single-item call. Each call has this one
// spelling, in Go and over HTTP, where every route lives under /v1.
//
// The cmd/hrtbench tool regenerates every figure of the paper's evaluation;
// cmd/scopeview renders the oscilloscope verification; cmd/sweep runs
// individual BSP benchmark points; cmd/hrtd serves the analysis over HTTP
// (see the v1 API contract in DESIGN.md) and cmd/hrtload load-tests it.
package hrtsched
