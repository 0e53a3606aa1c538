package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"hrtsched/internal/dag"
	"hrtsched/internal/plan"
)

// newReplicaOfOne starts a single-replica replicated cluster (no transport:
// it never dials a peer) and waits until it is a ready leader.
func newReplicaOfOne(t *testing.T, cfg ClusterConfig, dir string) *Cluster {
	t.Helper()
	cfg.Durability = &DurabilityConfig{Dir: dir}
	cfg.Replication = &ReplicationConfig{
		ID: 0, Replicas: 1,
		HeartbeatInterval: 2 * time.Millisecond,
		ElectionTimeout:   20 * time.Millisecond,
	}
	c := newTestCluster(t, cfg)
	deadline := time.Now().Add(10 * time.Second)
	for c.leaderCheck() != nil {
		if time.Now().After(deadline) {
			t.Fatalf("single replica never became a ready leader: %v", c.leaderCheck())
		}
		time.Sleep(time.Millisecond)
	}
	return c
}

// modeView is a cluster's status with the durability and replication
// blocks cleared: everything left is a function of the mutation stream
// alone and must not depend on which log commits it.
func modeView(t *testing.T, c *Cluster) string {
	t.Helper()
	st := c.Status()
	st.Durability, st.Replication = nil, nil
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshal status: %v", err)
	}
	return string(b)
}

// recoveredView is modeView minus what a restart legitimately forgets:
// session counters (rejections, cancellations, unmatched removals, DAG
// submission tallies) and draining flags are not logged.
func recoveredView(t *testing.T, c *Cluster) string {
	t.Helper()
	st := c.Status()
	st.Durability, st.Replication = nil, nil
	st.Rejected, st.Canceled, st.Unmatched = 0, 0, 0
	if st.DAG != nil {
		st.DAG.Submitted, st.DAG.Admitted, st.DAG.Rejected = 0, 0, 0
		if *st.DAG == (DAGStatus{}) {
			st.DAG = nil
		}
	}
	for i := range st.Nodes {
		st.Nodes[i].Draining = false
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshal status: %v", err)
	}
	return string(b)
}

// answer renders one operation's outcome (result and error) for comparison.
func answer(t *testing.T, res any, err error) string {
	t.Helper()
	b, merr := json.Marshal(res)
	if merr != nil {
		t.Fatalf("marshal result: %v", merr)
	}
	if err != nil {
		return string(b) + " err=" + err.Error()
	}
	return string(b)
}

// TestCommitPipelineCrossModeOracle drives one seeded mutation stream
// through a memory cluster, a WAL-durable cluster and a single-replica
// replicated cluster. After every operation the three must return the
// same result and error and report byte-identical status. At the end the
// two durable clusters restart from disk, and their recovered view — with
// counters rebuilt from the shadow state's record origins, independently
// of the live fold — must equal the memory cluster's.
func TestCommitPipelineCrossModeOracle(t *testing.T) {
	for _, tc := range []struct {
		seed   int64
		policy Policy
	}{{3, FirstFit}, {11, WorstFit}} {
		t.Run(fmt.Sprintf("seed=%d/%s", tc.seed, tc.policy), func(t *testing.T) {
			runCrossModeOracle(t, tc.seed, tc.policy)
		})
	}
}

func runCrossModeOracle(t *testing.T, seed int64, policy Policy) {
	rng := rand.New(rand.NewSource(seed))
	cfg := ClusterConfig{Nodes: 3, Policy: policy}
	walDir, replDir := t.TempDir(), t.TempDir()
	walCfg := cfg
	walCfg.Durability = &DurabilityConfig{Dir: walDir}
	modes := []string{"memory", "wal", "replicated"}
	cs := []*Cluster{
		newTestCluster(t, cfg),
		newTestCluster(t, walCfg),
		newReplicaOfOne(t, cfg, replDir),
	}
	ctx := context.Background()

	randSet := func() plan.TaskSet {
		set := make(plan.TaskSet, 1+rng.Intn(3))
		for i := range set {
			period := int64(100_000) << rng.Intn(3)
			set[i] = plan.Task{PeriodNs: period, SliceNs: period/40 + rng.Int63n(period/12)}
		}
		return set
	}
	randDAG := func() dag.Task {
		n := 3 + rng.Intn(3)
		dt := dag.Task{PeriodNs: int64(10_000_000) << rng.Intn(2), Cores: 2}
		for j := 0; j < n; j++ {
			dt.Nodes = append(dt.Nodes, dag.Node{WCETNs: (50 + rng.Int63n(300)) * 1000})
		}
		for v := 1; v < n; v++ {
			dt.Edges = append(dt.Edges, dag.Edge{From: rng.Intn(v), To: v})
		}
		if rng.Intn(5) == 0 {
			dt.DeadlineNs = 200_000 // tight: an analytical rejection
		}
		return dt
	}

	var live []string
	next := 0
	fresh := func() string { next++; return fmt.Sprintf("s%03d", next) }
	pick := func() string {
		if len(live) == 0 || rng.Intn(5) == 0 {
			return fmt.Sprintf("ghost-%d", rng.Intn(1000))
		}
		return live[rng.Intn(len(live))]
	}

	const ops = 160
	for op := 0; op < ops; op++ {
		var name string
		var run func(c *Cluster) string
		switch r := rng.Float64(); {
		case r < 0.28:
			id := fresh()
			if len(live) > 0 && rng.Intn(8) == 0 {
				id = live[rng.Intn(len(live))] // a duplicate-id conflict
			}
			set := randSet()
			name = "Place " + id
			run = func(c *Cluster) string {
				res, err := c.Place(ctx, id, set)
				return answer(t, res, err)
			}
		case r < 0.40:
			// One fresh id per batch keeps admission order deterministic;
			// the rest are in-batch duplicates, empty ids and live ids.
			id := fresh()
			items := []BatchPlaceItem{{ID: id, Tasks: randSet()}}
			for k := rng.Intn(4); k > 0; k-- {
				switch rng.Intn(3) {
				case 0:
					items = append(items, BatchPlaceItem{ID: id, Tasks: randSet()})
				case 1:
					items = append(items, BatchPlaceItem{ID: "", Tasks: randSet()})
				default:
					if len(live) > 0 {
						items = append(items, BatchPlaceItem{ID: live[rng.Intn(len(live))], Tasks: randSet()})
					}
				}
			}
			rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
			name = "PlaceBatch " + id
			run = func(c *Cluster) string {
				out := ""
				for _, br := range c.PlaceBatch(ctx, items) {
					out += br.ID + ":" + answer(t, br.Result, br.Err) + ";"
				}
				return out
			}
		case r < 0.60:
			id := pick()
			name = "Remove " + id
			run = func(c *Cluster) string {
				v, err := c.Remove(ctx, id)
				return answer(t, v, err)
			}
		case r < 0.68:
			id := fresh()
			dt := randDAG()
			an := []string{"", "classical", "alpha-beta"}[rng.Intn(3)]
			name = "PlaceDAG " + id
			run = func(c *Cluster) string {
				res, err := c.PlaceDAG(ctx, id, dt, an)
				return answer(t, res, err)
			}
		case r < 0.76:
			node := rng.Intn(cfg.Nodes)
			name = fmt.Sprintf("Drain %d", node)
			run = func(c *Cluster) string {
				rep, err := c.Drain(ctx, node)
				return answer(t, rep, err)
			}
		case r < 0.82:
			node := rng.Intn(cfg.Nodes)
			name = fmt.Sprintf("Undrain %d", node)
			run = func(c *Cluster) string { return answer(t, nil, c.Undrain(node)) }
		case r < 0.90:
			name = "Rebalance"
			run = func(c *Cluster) string {
				n, err := c.Rebalance(ctx)
				return answer(t, n, err)
			}
		default:
			set := randSet()
			name = "Evaluate"
			run = func(c *Cluster) string {
				vs, err := c.Evaluate(ctx, set)
				return answer(t, vs, err)
			}
		}

		want, wantView := run(cs[0]), modeView(t, cs[0])
		for i, c := range cs[1:] {
			if got := run(c); got != want {
				t.Fatalf("op %d %s: %s answered\n %s\nmemory answered\n %s", op, name, modes[i+1], got, want)
			}
			if got := modeView(t, c); got != wantView {
				t.Fatalf("op %d %s: %s status\n %s\nmemory status\n %s", op, name, modes[i+1], got, wantView)
			}
		}
		// The next op picks from the memory cluster's live ids, in a
		// deterministic order.
		live = live[:0]
		for id := range placedIDs(cs[0]) {
			live = append(live, id)
		}
		sort.Strings(live)
	}

	st := cs[0].Status()
	if st.Placed == 0 || st.Removed == 0 || st.Drained == 0 || st.Rebalanced == 0 || st.DAG == nil || st.DAG.Placed == 0 {
		t.Fatalf("stream never exercised every counter origin: %+v", st)
	}

	// Restart both durable clusters from disk.
	want := recoveredView(t, cs[0])
	cs[1].Close()
	cs[2].Close()
	walRec := newTestCluster(t, walCfg)
	replRec := newReplicaOfOne(t, cfg, replDir)
	for i, c := range []*Cluster{walRec, replRec} {
		if got := recoveredView(t, c); got != want {
			t.Fatalf("%s restart recovered\n %s\nmemory holds\n %s", modes[i+1], got, want)
		}
	}
}
