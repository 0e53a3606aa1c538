//go:build race

package whatif

// Under -race the runtime allocates on the detector's behalf, so the
// allocation gate would measure the detector, not the code;
// TestReplicationAllocationBudget skips.
func init() { raceEnabled = true }
