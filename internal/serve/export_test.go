package serve

import (
	"testing"
	"time"
)

// TestSpec is the package's test platform spec, for its external tests.
var TestSpec = testSpec

// ReplicatedFollower starts a three-replica replNet, commits one placement
// through its leader, and returns a follower that knows the leader's URL:
// a cluster whose mutations fail with a redirectable NotLeaderError. It is
// for the package's external tests, which may import the shard router.
func ReplicatedFollower(t *testing.T, seed int64) *Cluster {
	t.Helper()
	rn := newReplNet(t, seed)
	for id := 0; id < replNetSize; id++ {
		rn.start(id)
	}
	if !rn.place(t, "warm", setOfUtil(0.10)) {
		t.Fatalf("warm-up place rejected")
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, c := range rn.live() {
			if rs := c.replicationStatus(); rs.Role == "follower" && rs.LeaderURL != "" {
				return c
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("no follower learned the leader within 10s")
	return nil
}
