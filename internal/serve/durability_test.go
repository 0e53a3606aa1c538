package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hrtsched/internal/dag"
	"hrtsched/internal/durable"
	"hrtsched/internal/fault"
	"hrtsched/internal/plan"
)

// statusNoDur marshals a cluster's status with the durability block
// removed: that block carries session-local WAL counters, while everything
// else must be a pure function of the committed mutation sequence.
func statusNoDur(t *testing.T, c *Cluster) string {
	t.Helper()
	st := c.Status()
	st.Durability = nil
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshal status: %v", err)
	}
	return string(b)
}

// copyDir clones src into dst — the kill -9 moment, frozen to disk.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("read %s: %v", src, err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatalf("read %s: %v", e.Name(), err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatalf("write %s: %v", e.Name(), err)
		}
	}
}

func TestClusterDurabilityConfigValidate(t *testing.T) {
	cfg := ClusterConfig{Spec: testSpec, Nodes: 2, Durability: &DurabilityConfig{}}
	if err := cfg.Validate(); err == nil {
		t.Fatalf("empty durability dir validated")
	}
}

func TestClusterStatusOmitsDurabilityWhenDisabled(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Nodes: 2})
	b, err := json.Marshal(c.Status())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if strings.Contains(string(b), "durability") {
		t.Fatalf("disabled status leaks a durability block: %s", b)
	}
}

func TestClusterDurableRecoveryDeterministic(t *testing.T) {
	dir := t.TempDir()
	c := newTestCluster(t, ClusterConfig{Nodes: 3, Durability: &DurabilityConfig{Dir: dir}})
	ctx := context.Background()

	for i, frac := range []float64{0.30, 0.25, 0.20, 0.15, 0.10, 0.05} {
		id := fmt.Sprintf("set-%d", i)
		if res, err := c.Place(ctx, id, setOfUtil(frac)); err != nil || !res.Placed {
			t.Fatalf("Place(%s): %+v, %v", id, res, err)
		}
	}
	if _, err := c.Remove(ctx, "set-1"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := c.Drain(ctx, 0); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := c.Undrain(0); err != nil {
		t.Fatalf("Undrain: %v", err)
	}
	if _, err := c.Rebalance(ctx); err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	want := statusNoDur(t, c)
	if st := c.Status(); st.Durability == nil || st.Durability.Degraded {
		t.Fatalf("store unhealthy mid-test: %+v", st.Durability)
	}

	// Freeze the data dir twice without closing the cluster (kill -9: no
	// final snapshot, recovery must replay the WAL) and recover each copy.
	dir2, dir3 := t.TempDir(), t.TempDir()
	copyDir(t, dir, dir2)
	copyDir(t, dir, dir3)
	c2 := newTestCluster(t, ClusterConfig{Nodes: 3, Durability: &DurabilityConfig{Dir: dir2}})
	c3 := newTestCluster(t, ClusterConfig{Nodes: 3, Durability: &DurabilityConfig{Dir: dir3}})
	got2, got3 := statusNoDur(t, c2), statusNoDur(t, c3)
	if got2 != want {
		t.Fatalf("replay recovery diverged:\n got %s\nwant %s", got2, want)
	}
	if got3 != got2 {
		t.Fatalf("two recoveries of the same bytes diverged:\n%s\n%s", got3, got2)
	}

	// Clean shutdown cuts a final snapshot; snapshot-based recovery must
	// land on the same state replay-based recovery did.
	c2.Close()
	c4 := newTestCluster(t, ClusterConfig{Nodes: 3, Durability: &DurabilityConfig{Dir: dir2}})
	if rec := c4.Recovery(); rec.Replayed != 0 {
		t.Fatalf("clean restart replayed %d records", rec.Replayed)
	}
	if got4 := statusNoDur(t, c4); got4 != want {
		t.Fatalf("snapshot recovery diverged:\n got %s\nwant %s", got4, want)
	}
}

// TestNonCanonicalPlacementsSurviveRestart: every placement a durable
// cluster acknowledges comes back after kill -9 (the data dir frozen
// without a close) and recovery. The pinned requests of
// testdata/noncanonical.json get their pinned answers, the committed
// FuzzScanPlace and FuzzScanPlaceBatch corpora are posted to their
// routes, and the recovered cluster's status matches the crashed one's
// byte for byte.
func TestNonCanonicalPlacementsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	c := newTestCluster(t, ClusterConfig{Nodes: 2, Durability: &DurabilityConfig{Dir: dir}})
	ts := httptest.NewServer(newTestServer(t, Config{Shards: 1}).HandlerWithCluster(c))
	defer ts.Close()
	replayNonCanonical(t, ts.URL)
	for path, target := range map[string]string{
		"/v1/cluster/place":       "FuzzScanPlace",
		"/v1/cluster/place-batch": "FuzzScanPlaceBatch",
	} {
		placed := 0
		for name, body := range fuzzCorpus(t, target) {
			status, reply, _ := postJSON(t, ts.URL+path, body)
			if status >= 500 {
				t.Fatalf("%s %s: %d %s", path, name, status, reply)
			}
			if status == http.StatusOK && strings.Contains(reply, `"placed":true`) {
				placed++
			}
		}
		// Without an acknowledged placement the restart below checks
		// nothing for this route's corpus.
		if placed == 0 {
			t.Fatalf("%s: no %s corpus entry was placed", path, target)
		}
	}
	want := statusNoDur(t, c)

	crashDir := t.TempDir()
	copyDir(t, dir, crashDir)
	rec := newTestCluster(t, ClusterConfig{Nodes: 2, Durability: &DurabilityConfig{Dir: crashDir}})
	if r := rec.Recovery(); r.Rejected != 0 {
		t.Fatalf("recovery refused %d acknowledged records: %+v", r.Rejected, r)
	}
	if got := statusNoDur(t, rec); got != want {
		t.Fatalf("recovered status differs:\n got %s\nwant %s", got, want)
	}
}

// fuzzCorpus reads the committed seed corpus of one []byte fuzz target,
// keyed by file path.
func fuzzCorpus(t *testing.T, target string) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("%s corpus: %d entries (%v)", target, len(paths), err)
	}
	out := make(map[string]string, len(paths))
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		body, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a []byte corpus entry (%v)", p, err)
		}
		out[p] = body
	}
	return out
}

func TestClusterRecoveryReleasesMoveOrphans(t *testing.T) {
	ffs := fault.NewFaultyFS(nil)
	dir := t.TempDir()
	st, err := durable.Open(durable.Config{Dir: dir, NumNodes: 2, Spec: testSpec, FS: ffs})
	if err != nil {
		t.Fatalf("durable.Open: %v", err)
	}
	// Hand-craft the crash window of a move: the destination place hit the
	// log, the home release did not.
	set := setOfUtil(0.20)
	for _, r := range []durable.Record{
		{Kind: durable.KindPlace, Origin: durable.OriginClient, Node: 0, ID: "a", Tasks: set},
		{Kind: durable.KindPlace, Origin: durable.OriginRebalance, Node: 1, ID: "a", Tasks: set},
	} {
		if err := st.LogBatch([]durable.Record{r}); err != nil {
			t.Fatalf("LogBatch: %v", err)
		}
	}
	ffs.Crash(fault.CrashOptions{}) //nolint:errcheck
	st.Close()                      //nolint:errcheck

	c := newTestCluster(t, ClusterConfig{Nodes: 2, Durability: &DurabilityConfig{Dir: dir}})
	rec := c.Recovery()
	if rec.Replayed != 2 || rec.OrphansReleased != 1 {
		t.Fatalf("recovery: %+v", rec)
	}
	status := c.Status()
	if status.Placements != 1 || status.Nodes[0].Tasks != 0 || status.Nodes[1].Tasks != 1 {
		t.Fatalf("orphan survived recovery: %+v", status)
	}
	// The set is fully usable at its post-move home.
	if _, err := c.Remove(context.Background(), "a"); err != nil {
		t.Fatalf("Remove recovered set: %v", err)
	}
}

// TestClusterCrashRecoveryProperty drives a durable cluster and an
// in-memory twin through one random mutation stream, crashes the durable
// one at the end (a frozen copy of its data dir, sometimes with a torn
// append on the active segment), and requires the recovered cluster to
// report exactly the twin's state.
func TestClusterCrashRecoveryProperty(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			mem := newTestCluster(t, ClusterConfig{Nodes: 4})
			dur := newTestCluster(t, ClusterConfig{Nodes: 4, Durability: &DurabilityConfig{Dir: dir}})
			ctx := context.Background()

			randSet := func() plan.TaskSet {
				set := make(plan.TaskSet, 1+rng.Intn(3))
				for i := range set {
					period := int64(100_000) << rng.Intn(3)
					set[i] = plan.Task{PeriodNs: period, SliceNs: period/50 + rng.Int63n(period/20)}
				}
				return set
			}
			randDAGTask := func() dag.Task {
				n := 3 + rng.Intn(4)
				dt := dag.Task{PeriodNs: int64(10_000_000) << rng.Intn(2), Cores: 2 + rng.Intn(2)}
				for j := 0; j < n; j++ {
					dt.Nodes = append(dt.Nodes, dag.Node{WCETNs: (20 + rng.Int63n(100)) * 1000})
				}
				for u := 0; u < n; u++ {
					for v := u + 1; v < n; v++ {
						if rng.Float64() < 0.4 {
							dt.Edges = append(dt.Edges, dag.Edge{From: u, To: v})
						}
					}
				}
				if rng.Intn(4) == 0 {
					dt.DeadlineNs = 150_000 // tight: exercises analytical rejection
				}
				return dt
			}
			dagAnalyzers := []string{"", "classical", "alpha-beta"}
			var live []string
			next := 0
			ops := 80 + rng.Intn(60)
			for i := 0; i < ops; i++ {
				switch r := rng.Float64(); {
				case r < 0.45 || len(live) == 0:
					id := fmt.Sprintf("set-%03d", next)
					next++
					set := randSet()
					rm, err1 := mem.Place(ctx, id, set)
					rd, err2 := dur.Place(ctx, id, set)
					if err1 != nil || err2 != nil || rm.Placed != rd.Placed || rm.Node != rd.Node {
						t.Fatalf("op %d: Place(%s) diverged: mem=%+v,%v dur=%+v,%v", i, id, rm, err1, rd, err2)
					}
					if rm.Placed {
						live = append(live, id)
					}
				case r < 0.55:
					// DAG admission flows through the same durable commit
					// path (KindPlaceDAG); placements join the same lifecycle.
					id := fmt.Sprintf("dag-%03d", next)
					next++
					dt := randDAGTask()
					an := dagAnalyzers[rng.Intn(len(dagAnalyzers))]
					rm, err1 := mem.PlaceDAG(ctx, id, dt, an)
					rd, err2 := dur.PlaceDAG(ctx, id, dt, an)
					if err1 != nil || err2 != nil || rm.Placed != rd.Placed || rm.Node != rd.Node ||
						rm.Analysis.BoundNs != rd.Analysis.BoundNs {
						t.Fatalf("op %d: PlaceDAG(%s) diverged: mem=%+v,%v dur=%+v,%v", i, id, rm, err1, rd, err2)
					}
					if rm.Placed {
						live = append(live, id)
					}
				case r < 0.80:
					j := rng.Intn(len(live))
					id := live[j]
					live = append(live[:j], live[j+1:]...)
					if _, err1 := mem.Remove(ctx, id); err1 != nil {
						t.Fatalf("op %d: mem Remove(%s): %v", i, id, err1)
					}
					if _, err2 := dur.Remove(ctx, id); err2 != nil {
						t.Fatalf("op %d: dur Remove(%s): %v", i, id, err2)
					}
				case r < 0.90:
					node := rng.Intn(4)
					r1, err1 := mem.Drain(ctx, node)
					r2, err2 := dur.Drain(ctx, node)
					if err1 != nil || err2 != nil || r1.Moved != r2.Moved || r1.Stranded != r2.Stranded {
						t.Fatalf("op %d: Drain(%d) diverged: %+v,%v vs %+v,%v", i, node, r1, err1, r2, err2)
					}
					if err := mem.Undrain(node); err != nil {
						t.Fatalf("Undrain: %v", err)
					}
					if err := dur.Undrain(node); err != nil {
						t.Fatalf("Undrain: %v", err)
					}
				default:
					n1, err1 := mem.Rebalance(ctx)
					n2, err2 := dur.Rebalance(ctx)
					if err1 != nil || err2 != nil || n1 != n2 {
						t.Fatalf("op %d: Rebalance diverged: %d,%v vs %d,%v", i, n1, err1, n2, err2)
					}
				}
			}
			if st := dur.Status(); st.Durability == nil || st.Durability.Degraded {
				t.Fatalf("durable cluster unhealthy: %+v", st.Durability)
			}
			// Rejections, cancellations, and unmatched removals commit
			// nothing, so they are deliberately not durable: zero them
			// before comparing against a recovered session.
			durableView := func(c *Cluster) string {
				st := c.Status()
				st.Durability = nil
				st.Rejected, st.Canceled, st.Unmatched = 0, 0, 0
				// DAG submission/admission/rejection tallies are session
				// counters too; placements and the placed total are durable.
				if st.DAG != nil {
					st.DAG.Submitted, st.DAG.Admitted, st.DAG.Rejected = 0, 0, 0
					if *st.DAG == (DAGStatus{}) {
						st.DAG = nil
					}
				}
				b, err := json.Marshal(st)
				if err != nil {
					t.Fatalf("marshal status: %v", err)
				}
				return string(b)
			}
			want := durableView(mem)
			if got := durableView(dur); got != want {
				t.Fatalf("twins diverged before the crash:\n dur %s\n mem %s", got, want)
			}

			crashDir := t.TempDir()
			copyDir(t, dir, crashDir)
			if rng.Intn(2) == 0 {
				// A torn append that never acked: garbage after the last
				// synced frame of the newest segment. Recovery must cut it.
				var newest string
				entries, _ := os.ReadDir(crashDir)
				for _, e := range entries {
					if strings.HasSuffix(e.Name(), ".wal") && e.Name() > newest {
						newest = e.Name()
					}
				}
				f, err := os.OpenFile(filepath.Join(crashDir, newest), os.O_APPEND|os.O_WRONLY, 0o644)
				if err != nil {
					t.Fatalf("open active segment: %v", err)
				}
				if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
					t.Fatalf("tear segment: %v", err)
				}
				f.Close()
			}
			rec := newTestCluster(t, ClusterConfig{Nodes: 4, Durability: &DurabilityConfig{Dir: crashDir}})
			if got := durableView(rec); got != want {
				t.Fatalf("recovered state diverged from the twin:\n got %s\nwant %s\nrecovery %+v",
					got, want, rec.Recovery())
			}
		})
	}
}

// TestDurablePlaceGroupCommitsQueuedMutations is the deterministic
// tier-1 proxy for the wall-clock gate TestDurablePlaceThroughputAtLeast8k
// (build tag perfgate, run by `make perf-gate`): k mutations queued on a
// durable node before its worker starts go through the commit step as one
// batch — k records, one fsync — and every one is acked placed.
func TestDurablePlaceGroupCommitsQueuedMutations(t *testing.T) {
	c, err := newCluster(ClusterConfig{Spec: testSpec, Nodes: 1, Durability: &DurabilityConfig{Dir: t.TempDir()}})
	if err != nil {
		t.Fatalf("newCluster: %v", err)
	}
	n := c.nodes[0]
	const k = 16
	ms := make([]*mutation, k)
	for i := range ms {
		ms[i] = &mutation{
			ctx: context.Background(), op: placeOp, set: plan.TaskSet{{PeriodNs: 1_000_000, SliceNs: 2_000}},
			id: fmt.Sprintf("q%d", i), origin: durable.OriginClient, done: make(chan mutResult, 1),
		}
		n.ch <- ms[i]
	}
	c.wg.Add(1)
	go c.runNode(n)
	defer c.Close()
	for i, m := range ms {
		if r := <-m.done; r.err != nil || !r.verdict.Admit {
			t.Fatalf("mutation %d: %+v", i, r)
		}
	}
	st := c.Status()
	if d := st.Durability; d == nil || d.Records != k || d.Fsyncs != 1 || d.Batches != 1 {
		t.Fatalf("want %d records in one group commit, durability = %+v", k, st.Durability)
	}
	if st.Placements != k || st.Placed != k {
		t.Fatalf("fold missed the batch: %d placements, %d placed", st.Placements, st.Placed)
	}
}

// raceEnabled is set by race_enabled_test.go under -race.
var raceEnabled bool

func benchClusterPlace(b *testing.B, durability *DurabilityConfig) {
	cfg := ClusterConfig{Spec: testSpec, Nodes: 4, Durability: durability}
	c, err := NewCluster(cfg)
	if err != nil {
		b.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	ctx := context.Background()
	set := plan.TaskSet{{PeriodNs: 1_000_000, SliceNs: 2_000}}
	var workerSeq sync.Mutex
	nextWorker := 0
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		workerSeq.Lock()
		w := nextWorker
		nextWorker++
		workerSeq.Unlock()
		i := 0
		for pb.Next() {
			id := fmt.Sprintf("w%d-%d", w, i)
			i++
			if res, err := c.Place(ctx, id, set); err != nil || !res.Placed {
				b.Errorf("Place(%s): %+v, %v", id, res, err)
				return
			}
			if _, err := c.Remove(ctx, id); err != nil {
				b.Errorf("Remove(%s): %v", id, err)
				return
			}
		}
	})
}

func BenchmarkClusterPlaceMemory(b *testing.B) {
	benchClusterPlace(b, nil)
}

func BenchmarkClusterPlaceDurable(b *testing.B) {
	benchClusterPlace(b, &DurabilityConfig{Dir: b.TempDir()})
}
