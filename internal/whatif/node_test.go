package whatif

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"hrtsched/internal/sim"
)

// nodeGrid is every combination of machine preset, CPU count 1–4, fault
// set (none, each preset alone, and a mix), degrade policy and model
// family, each with a small task set drawn from rng and a few
// milliseconds of simulated time per replication.
func nodeGrid(rng *sim.Rand) []Scenario {
	faultSets := [][]string{nil, {"smi-storm"}, {"smi-drain"}, {"irq-storm"}, {"timer-drift"},
		{"irq-storm", "timer-drift", "smi-storm"}}
	families := []string{"wcet", "full-random", "half-random", "random-0.6,1.3"}
	periodsUs := []int64{100, 200, 250, 500, 1000}
	var grid []Scenario
	for _, mach := range []string{"phiknl", "r415"} {
		for cpus := 1; cpus <= 4; cpus++ {
			for _, faults := range faultSets {
				for _, policy := range []string{"off", "demote", "shrink", "evict"} {
					for _, model := range families {
						if model != "wcet" && rng.Intn(2) == 1 {
							model += ":normal"
						}
						sc := Scenario{
							Name:    fmt.Sprintf("grid-%d", len(grid)),
							Machine: mach,
							CPUs:    cpus,
							Model:   model,
							Faults:  faults,
							Degrade: policy,
						}
						for j := range 1 + rng.Intn(3) {
							p := periodsUs[rng.Intn(len(periodsUs))] * 1000
							slice := p * rng.Range(10, 45) / 100
							sc.Tasks = append(sc.Tasks, Task{
								PeriodNs: p,
								SliceNs:  slice,
								WcetNs:   slice * rng.Range(70, 130) / 100,
								CPU:      j % cpus,
							})
						}
						hp := hyperperiodNs(sc.Tasks)
						sc.Hyperperiods = int((3_000_000 + hp - 1) / hp)
						sc.Replications = 2
						grid = append(grid, sc)
					}
				}
			}
		}
	}
	return grid
}

func reportJSON(t *testing.T, rep *Report, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestNodeMatchesFreshRun: one Node runs the whole grid in a shuffled
// order, so each scenario lands on a node that just ran some other preset,
// CPU count, fault set, policy and model, and every report is
// byte-identical to the report of a fresh Run.
func TestNodeMatchesFreshRun(t *testing.T) {
	rng := sim.NewRand(0x90de)
	grid := nodeGrid(rng)
	order := make([]int, len(grid))
	for i := range order {
		order[i] = i
	}
	for i := len(order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	var node Node
	var steps uint64
	var misses int64
	for _, i := range order {
		sc, seed := grid[i], uint64(i)+1
		warm, err := node.Run(sc, seed)
		got := reportJSON(t, warm, err)
		fresh, err := Run(sc, seed)
		want := reportJSON(t, fresh, err)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s (%s, %d cpus, %s, faults %s, degrade %s) on a warm node:\n%s\n--- fresh ---\n%s",
				sc.Name, sc.Machine, sc.CPUs, sc.Model, strings.Join(sc.Faults, "+"), sc.Degrade, got, want)
		}
		steps += fresh.EngineSteps
		misses += fresh.TotalMisses
	}
	// The grid must simulate something and miss somewhere, or the
	// comparison could pass on empty reports.
	if steps == 0 || misses == 0 {
		t.Fatalf("grid of %d scenarios simulated %d steps and %d misses", len(grid), steps, misses)
	}
	t.Logf("%d scenarios, %d engine steps, %d misses", len(grid), steps, misses)
}

// TestWarmNodeAllocationBudget: a request on a warm node re-boots the
// machine, kernel and checker it already has, so one benchScenario(1)
// request allocates only its own replica and report — at most 48 times,
// well under the cold budget of TestReplicationAllocationBudget.
func TestWarmNodeAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race measure the detector")
	}
	const maxAllocs = 48
	sc := benchScenario(1)
	var node Node
	if _, err := node.Run(sc, 7); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := node.Run(sc, 7); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm node: %.0f allocs per request", allocs)
	if allocs > maxAllocs {
		t.Errorf("a warm node allocates %.0f times per request, budget %d", allocs, maxAllocs)
	}
}

// TestValidateBoundsCPUs: a scenario may scale a preset down but not past
// its own CPU count, so one request cannot ask for an arbitrarily large
// machine.
func TestValidateBoundsCPUs(t *testing.T) {
	cases := []struct {
		machine string
		cpus    int
		ok      bool
	}{
		{"phiknl", 1, true},
		{"phiknl", 256, true},
		{"phiknl", 257, false},
		{"phiknl", 65536, false},
		{"r415", 8, true},
		{"r415", 9, false},
		{"r415", 256, false},
	}
	for _, c := range cases {
		sc := testScenario()
		sc.Machine, sc.CPUs = c.machine, c.cpus
		sc.Tasks = sc.Tasks[:1]
		err := sc.Normalize().Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s with %d cpus: Validate = %v, want ok=%v", c.machine, c.cpus, err, c.ok)
		}
	}
}
