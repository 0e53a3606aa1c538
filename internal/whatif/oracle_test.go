package whatif

import (
	"encoding/json"
	"math/rand"
	"testing"

	"hrtsched/internal/machine"
	"hrtsched/internal/plan"
)

// The admission oracle: every set the analysis admits must run without a
// scheduler miss (TotalMisses) in the simulator, with no faults and the
// wcet model. Late jobs do not count: each job's wcet sits below its
// slice, and lateness from the record step is the execution model's
// business, not the analysis's.
//
// The probe draws sets with math/rand seed 1: machine r415 or phiknl, 1-4
// tasks per CPU, periods {4,10,20,50,100} us x {1,2,3}, slice = period x
// U[5,94]% / n (floor 500 ns), wcet = slice - slice/50 - 200 ns, run for 2
// replications x 5 hyperperiods under whatif seed i+1. Tier-1 checks the
// first 1000 one-CPU sets; the planverify build checks 20 000 one-CPU sets
// plus 1000 sets each partitioned over 2, 3 and 4 CPUs.

var probePeriodsUs = []int64{4, 10, 20, 50, 100}

// probeCPU appends one CPU's partition of 1-4 probe tasks to tasks.
func probeCPU(rng *rand.Rand, tasks []Task, cpu int) []Task {
	n := 1 + rng.Intn(4)
	for range n {
		period := probePeriodsUs[rng.Intn(len(probePeriodsUs))] * int64(1+rng.Intn(3)) * 1000
		slice := max(period*int64(5+rng.Intn(90))/100/int64(n), 500)
		tasks = append(tasks, Task{PeriodNs: period, SliceNs: slice, WcetNs: slice - slice/50 - 200, CPU: cpu})
	}
	return tasks
}

// probeScenario draws the next probe set over cpus CPUs.
func probeScenario(rng *rand.Rand, cpus int) Scenario {
	sc := Scenario{Machine: []string{"r415", "phiknl"}[rng.Intn(2)], CPUs: cpus, Replications: 2, Hyperperiods: 5}
	for cpu := range cpus {
		sc.Tasks = probeCPU(rng, sc.Tasks, cpu)
	}
	return sc
}

// admitted reports the analysis verdict Run reports, without running.
func admitted(sc Scenario) bool {
	sc = sc.Normalize()
	spec, _ := machine.SpecByName(sc.Machine)
	var rep Report
	rep.analyze(sc, plan.SpecFor(spec, sc.UtilizationLimit))
	return rep.Admit
}

// wrongAdmit runs an admitted scenario and reports whether it missed.
func wrongAdmit(t *testing.T, sc Scenario, seed uint64) bool {
	t.Helper()
	rep, err := Run(sc, seed)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return rep.Admit && rep.TotalMisses > 0
}

// shrink reduces a wrong ADMIT greedily: drop tasks while the rest is
// still a wrong ADMIT, then hyperperiods.
func shrink(t *testing.T, sc Scenario, seed uint64) Scenario {
	for i := 0; i < len(sc.Tasks) && len(sc.Tasks) > 1; {
		cand := sc
		cand.Tasks = append(append([]Task(nil), sc.Tasks[:i]...), sc.Tasks[i+1:]...)
		if wrongAdmit(t, cand, seed) {
			sc = cand
			continue
		}
		i++
	}
	for sc.Hyperperiods > 1 {
		cand := sc
		cand.Hyperperiods--
		if !wrongAdmit(t, cand, seed) {
			break
		}
		sc = cand
	}
	return sc
}

// simulateBody renders a scenario as the /v1/simulate request that
// reproduces it.
func simulateBody(sc Scenario, seed uint64) string {
	b, _ := json.Marshal(struct {
		Scenario Scenario `json:"scenario"`
		Seed     uint64   `json:"seed"`
	}{sc, seed})
	return string(b)
}

// checkOracle runs sets probe sets over cpus CPUs from rng and fails on
// every wrong ADMIT, printing its seed and shrunk /v1/simulate body.
func checkOracle(t *testing.T, rng *rand.Rand, sets, cpus int) {
	admits, wrong := 0, 0
	for i := range sets {
		sc := probeScenario(rng, cpus)
		seed := uint64(i + 1)
		if !admitted(sc) {
			continue
		}
		admits++
		if wrongAdmit(t, sc, seed) {
			wrong++
			t.Errorf("wrong ADMIT, probe set %d, seed %d:\n%s", i, seed, simulateBody(shrink(t, sc, seed), seed))
		}
	}
	t.Logf("%d CPU(s): %d sets, %d admitted, %d wrong ADMITs", cpus, sets, admits, wrong)
}

func TestAdmissionOracleNoWrongAdmits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if !plan.VerifyEnabled {
		checkOracle(t, rng, 1000, 1)
		return
	}
	checkOracle(t, rng, 20_000, 1)
	for cpus := 2; cpus <= 4; cpus++ {
		checkOracle(t, rng, 1000, cpus)
	}
}

// TestAdmissionOracleResidualPair pins the pair the nominal-cost analysis
// admitted and the simulator missed: on phiknl, 300/12 us beside 20/7.7
// us. The 20 us checkpoint needs 7.7 us + 2 invocations + the 300 us
// task's arrival, 7.7 + 2*5.19 + 5.19 = 23.3 us, so it must be rejected.
func TestAdmissionOracleResidualPair(t *testing.T) {
	sc := Scenario{Machine: "phiknl", CPUs: 1, Replications: 2, Hyperperiods: 5, Tasks: []Task{
		{PeriodNs: 300_000, SliceNs: 12_000, WcetNs: 11_560},
		{PeriodNs: 20_000, SliceNs: 7_700, WcetNs: 7_346},
	}}
	rep, err := Run(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admit || rep.AdmitReason != plan.HyperperiodMiss.String() {
		t.Fatalf("residual pair: admit=%t reason=%s, want a hyperperiod-miss rejection", rep.Admit, rep.AdmitReason)
	}
}
