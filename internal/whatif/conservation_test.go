package whatif

import (
	"fmt"
	"testing"

	"hrtsched/internal/plan"
)

// TestConservationUnderFaultSubsets runs the seed-1093 scenario shape —
// r415, one CPU, three tasks at up to 60% of their period each, the
// random-0.6,1.1:normal model — under every non-empty subset of
// {irq-storm, timer-drift, smi-storm} and requires the invariant checker
// to record nothing. A device interrupt arriving inside a pending
// handler window must queue behind it: run in parallel on the same CPU,
// the first window's elapsed part is booked twice (as thread time and as
// handler time), which the conservation check reports. Tier-1 runs the
// demote policy over seeds 1-50; the planverify build runs both off and
// demote over seeds 1-200.
func TestConservationUnderFaultSubsets(t *testing.T) {
	presets := []string{"irq-storm", "timer-drift", "smi-storm"}
	policies, seeds := []string{"demote"}, uint64(50)
	if plan.VerifyEnabled {
		policies, seeds = []string{"off", "demote"}, 200
	}
	for _, policy := range policies {
		for mask := 1; mask < 1<<len(presets); mask++ {
			sc := seed1093()
			sc.Degrade = policy
			sc.Faults = nil
			for i, p := range presets {
				if mask&(1<<i) != 0 {
					sc.Faults = append(sc.Faults, p)
				}
			}
			t.Run(fmt.Sprintf("%s%v", policy, sc.Faults), func(t *testing.T) {
				t.Parallel()
				bad := 0
				for seed := uint64(1); seed <= seeds; seed++ {
					rep, err := Run(sc, seed)
					if err != nil {
						t.Fatal(err)
					}
					if rep.InvariantViolations > 0 {
						bad++
						t.Errorf("seed %d: %d invariant violations", seed, rep.InvariantViolations)
					}
				}
				if bad > 0 {
					t.Errorf("%d/%d seeds violate", bad, seeds)
				}
			})
		}
	}
}
