package hrtsched

import (
	"hrtsched/internal/bsp"
	"hrtsched/internal/core"
	"hrtsched/internal/cyclic"
	"hrtsched/internal/group"
	"hrtsched/internal/legion"
	"hrtsched/internal/machine"
	"hrtsched/internal/omp"
	"hrtsched/internal/plan"
	"hrtsched/internal/serve"
)

// --- Platform (internal/machine) -------------------------------------------

// Spec describes a simulated hardware platform.
type Spec = machine.Spec

// Machine is one simulated shared-memory x64 node.
type Machine = machine.Machine

// PhiKNL returns the paper's Xeon Phi 7210 testbed model (256 CPUs,
// 1.3 GHz).
func PhiKNL() Spec { return machine.PhiKNL() }

// NewMachine builds a machine from a spec with all randomness derived from
// seed; equal seeds give bit-identical simulations.
func NewMachine(spec Spec, seed uint64) *Machine { return machine.New(spec, seed) }

// --- Kernel and scheduler (internal/core) ----------------------------------

// Kernel is a booted Nautilus-style kernel instance.
type Kernel = core.Kernel

// Config is the boot-time local scheduler configuration.
type Config = core.Config

// Constraints is the admission-control interface: aperiodic, periodic
// (phase, period, slice) or sporadic (phase, size, deadline, priority).
type Constraints = core.Constraints

// Program is the body of a thread: a state machine yielding Actions.
type Program = core.Program

// ProgramFunc adapts a function to Program.
type ProgramFunc = core.ProgramFunc

// ThreadCtx is the context passed to program steps.
type ThreadCtx = core.ThreadCtx

// Action is one step of thread execution.
type Action = core.Action

// Thread actions.
type (
	// Compute consumes CPU cycles.
	Compute = core.Compute
	// ChangeConstraints performs individual admission control.
	ChangeConstraints = core.ChangeConstraints
)

// Step is a continuation-passing program stage, for multi-phase protocols.
type Step = core.Step

// Boot constructs a kernel on a machine: calibrates cycle counters and
// starts one local scheduler per CPU.
func Boot(m *Machine, cfg Config) *Kernel { return core.Boot(m, cfg) }

// DefaultConfig returns the paper's default scheduler configuration for a
// platform (99% utilization limit, 10% sporadic and 10% aperiodic
// reservations, eager EDF, power-of-two-choices work stealing).
func DefaultConfig(spec Spec) Config { return core.DefaultConfig(spec) }

// PeriodicConstraints builds (phase, period, slice) constraints (ns).
func PeriodicConstraints(phaseNs, periodNs, sliceNs int64) Constraints {
	return core.PeriodicConstraints(phaseNs, periodNs, sliceNs)
}

// FlowThen runs a step chain, then continues with cont.
func FlowThen(start Step, cont Program) Program { return core.FlowThen(start, cont) }

// --- Groups (internal/group) ------------------------------------------------

// Group is a named thread group with distributed admission control.
type Group = group.Group

// GroupCosts models the coordination costs inside group operations.
type GroupCosts = group.Costs

// GroupAdmitOptions tunes group admission (phase correction on/off).
type GroupAdmitOptions = group.AdmitOptions

// NewGroup creates a thread group expecting size members. It returns an
// error for a non-positive size.
func NewGroup(k *Kernel, name string, size int, costs GroupCosts) (*Group, error) {
	return group.New(k, name, size, costs)
}

// DefaultGroupCosts returns the Figure 10 calibration.
func DefaultGroupCosts() GroupCosts { return group.DefaultCosts() }

// --- BSP microbenchmark (internal/bsp) --------------------------------------

// BSPParams configures the Section 6.1 microbenchmark.
type BSPParams = bsp.Params

// BSPBench is one instantiated benchmark.
type BSPBench = bsp.Bench

// NewBSP builds the benchmark on a kernel.
func NewBSP(k *Kernel, p BSPParams) *BSPBench { return bsp.New(k, p) }

// BSPFineGrain returns the finest granularity of the paper's study.
func BSPFineGrain(p, n int) BSPParams { return bsp.FineGrain(p, n) }

// --- Cyclic executives (internal/cyclic) -------------------------------------

// CyclicTask is one periodic task to compile into a static schedule.
type CyclicTask = cyclic.Task

// CyclicTable is a compiled cyclic-executive schedule.
type CyclicTable = cyclic.Table

// BuildCyclic compiles a task set into a static schedule (offline EDF),
// validating schedulability — the paper's future-work direction of
// real-time behavior by static construction.
func BuildCyclic(tasks []CyclicTask, utilizationLimit float64) (*CyclicTable, error) {
	return cyclic.Build(tasks, utilizationLimit)
}

// --- Parallel run-times (internal/omp, internal/legion) ----------------------

// OMPTeam is the OpenMP-like worker team: statically-scheduled parallel-for
// regions, optionally gang-scheduled, optionally barrier-free.
type OMPTeam = omp.Team

// OMPConfig configures a team.
type OMPConfig = omp.Config

// OMPSyncTimed synchronizes a team's regions by time instead of barriers.
const OMPSyncTimed = omp.SyncTimed

// NewOMPTeam creates and starts a worker team. It returns an error for a
// non-positive worker count or timed sync without periodic constraints.
func NewOMPTeam(k *Kernel, cfg OMPConfig) (*OMPTeam, error) { return omp.NewTeam(k, cfg) }

// LegionRuntime is the Legion-like task-based run-time: tasks with region
// requirements, implicit dependence extraction, greedy worker-pool
// execution.
type LegionRuntime = legion.Runtime

// NewLegion creates a Legion-like runtime with a worker pool. It returns an
// error for a non-positive worker count.
func NewLegion(k *Kernel, cfg legion.Config) (*LegionRuntime, error) { return legion.New(k, cfg) }

// --- Schedulability analysis (internal/plan) ---------------------------------

// PlanTaskSet is a set of periodic tasks under analysis.
type PlanTaskSet = plan.TaskSet

// PlanSpec is the platform model an analysis runs against: per-invocation
// scheduler overhead and the utilization limit.
type PlanSpec = plan.Spec

// PlanVerdict is a full admission answer: the closed-form bound, the
// exact processor-demand test, and the combined decision.
type PlanVerdict = plan.Verdict

// PlanSpecFor derives the analysis spec for a machine spec at a
// utilization limit, charging the platform's worst-case per-invocation
// overhead (see plan.SpecFor).
func PlanSpecFor(m Spec, utilizationLimit float64) PlanSpec {
	return plan.SpecFor(m, utilizationLimit)
}

// AnalyzeTaskSet answers admit/reject for a task set on a platform.
func AnalyzeTaskSet(spec PlanSpec, set PlanTaskSet) PlanVerdict {
	return plan.Analyze(spec, set)
}

// --- Admission-query service (internal/serve) --------------------------------

// ServeConfig configures the sharded admission-query server.
type ServeConfig = serve.Config

// Server is the sharded, batching, caching admission-query service behind
// cmd/hrtd.
type Server = serve.Server

// NewServer starts an admission-query server; Close releases its shards.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }
