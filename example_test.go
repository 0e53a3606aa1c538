package hrtsched_test

import (
	"context"
	"fmt"

	"hrtsched"
)

// Example reproduces the README quickstart: boot a simulated Phi, admit a
// hard real-time periodic thread, and observe the zero-miss guarantee.
func Example() {
	spec := hrtsched.PhiKNL()
	spec.NumCPUs = 4
	m := hrtsched.NewMachine(spec, 42)
	k := hrtsched.Boot(m, hrtsched.DefaultConfig(spec))

	cons := hrtsched.PeriodicConstraints(0, 100_000, 50_000)
	admitted := false
	th := k.Spawn("worker", 1, hrtsched.ProgramFunc(
		func(tc *hrtsched.ThreadCtx) hrtsched.Action {
			if !admitted {
				admitted = true
				return hrtsched.ChangeConstraints{C: cons}
			}
			return hrtsched.Compute{Cycles: 20_000}
		}))

	k.RunNs(50_000_000)
	fmt.Println(th.Arrivals, "arrivals,", th.Misses, "misses")
	// Output: 500 arrivals, 0 misses
}

// ExampleNewGroup gang-schedules a group through distributed admission
// control (Algorithm 1) with phase correction.
func ExampleNewGroup() {
	spec := hrtsched.PhiKNL()
	spec.NumCPUs = 5
	m := hrtsched.NewMachine(spec, 7)
	k := hrtsched.Boot(m, hrtsched.DefaultConfig(spec))

	const n = 4
	g, err := hrtsched.NewGroup(k, "workers", n, hrtsched.DefaultGroupCosts())
	if err != nil {
		panic(err)
	}
	cons := hrtsched.PeriodicConstraints(0, 100_000, 50_000)
	flow := g.JoinSteps(g.ChangeConstraintsSteps(cons,
		hrtsched.GroupAdmitOptions{PhaseCorrection: true}, nil))
	body := hrtsched.ProgramFunc(func(tc *hrtsched.ThreadCtx) hrtsched.Action {
		return hrtsched.Compute{Cycles: 10_000}
	})
	for i := 0; i < n; i++ {
		k.Spawn("member", 1+i, hrtsched.FlowThen(flow, body))
	}
	k.RunNs(50_000_000)
	fmt.Println("failed:", g.Failed(), "members:", len(g.Members()))
	// Output: failed: false members: 4
}

// ExampleBuildCyclic compiles a periodic task set into a static cyclic
// executive table.
func ExampleBuildCyclic() {
	tbl, err := hrtsched.BuildCyclic([]hrtsched.CyclicTask{
		{Name: "a", PeriodNs: 100_000, SliceNs: 30_000},
		{Name: "b", PeriodNs: 200_000, SliceNs: 60_000},
	}, 0.99)
	if err != nil {
		panic(err)
	}
	fmt.Printf("hyperperiod %d ns, %.0f%% utilization, valid: %v\n",
		tbl.HyperperiodNs, tbl.UtilPct, tbl.Validate() == nil)
	// Output: hyperperiod 200000 ns, 60% utilization, valid: true
}

// ExampleNewBSP runs the paper's BSP microbenchmark under gang scheduling
// with barriers removed.
func ExampleNewBSP() {
	spec := hrtsched.PhiKNL()
	spec.NumCPUs = 9
	m := hrtsched.NewMachine(spec, 3)
	k := hrtsched.Boot(m, hrtsched.DefaultConfig(spec))

	p := hrtsched.BSPFineGrain(8, 20)
	p.UseBarrier = false
	p.Constraints = hrtsched.PeriodicConstraints(0, 200_000, 180_000)
	p.PhaseCorrection = true
	res := hrtsched.NewBSP(k, p).Run(1 << 28)
	fmt.Println("iterations:", res.Iterations, "write errors:", res.WriteErrors,
		"skew:", res.MaxSkew <= 2)
	// Output: iterations: 160 write errors: 0 skew: true
}

// ExampleAnalyzeTaskSet answers offline admission for a periodic task set
// on the Phi platform model: the closed-form utilization bound plus an
// exact processor-demand test with charged scheduler overhead.
func ExampleAnalyzeTaskSet() {
	spec := hrtsched.PlanSpecFor(hrtsched.PhiKNL(), 0.99)
	v := hrtsched.AnalyzeTaskSet(spec, hrtsched.PlanTaskSet{
		{PeriodNs: 100_000, SliceNs: 30_000},
		{PeriodNs: 200_000, SliceNs: 60_000},
	})
	fmt.Printf("admit: %v reason: %s utilization: %.2f checkpoints: %d\n",
		v.Admit, v.Reason, v.Utilization, v.Sim.Steps)
	// Output: admit: true reason: ok utilization: 0.60 checkpoints: 0
}

// ExampleNewServer runs the admission-query service in-process: queries
// are sharded by task-set digest and repeated sets answer from the
// shard's cache.
func ExampleNewServer() {
	srv, err := hrtsched.NewServer(hrtsched.ServeConfig{
		Spec:   hrtsched.PlanSpecFor(hrtsched.PhiKNL(), 0.99),
		Shards: 2,
	})
	if err != nil {
		panic(err)
	}
	defer srv.Close()

	set := hrtsched.PlanTaskSet{{PeriodNs: 1_000_000, SliceNs: 250_000}}
	v, cached1, err := srv.AnalyzeContext(context.Background(), set)
	if err != nil {
		panic(err)
	}
	_, cached2, err := srv.AnalyzeContext(context.Background(), set)
	if err != nil {
		panic(err)
	}
	fmt.Println("admit:", v.Admit, "first cached:", cached1, "second cached:", cached2)
	// Output: admit: true first cached: false second cached: true
}
