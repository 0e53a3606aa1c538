package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hrtsched/internal/core"
	"hrtsched/internal/dag"
	"hrtsched/internal/fault"
	"hrtsched/internal/plan"
	"hrtsched/internal/repl"
)

// replNet is an in-process 3-replica cluster: each replica is a full
// serve.Cluster whose consensus transport calls straight into its peers'
// handlers, gated by a seeded fault.NetPolicy so partitions and message
// drops are scriptable and deterministic.
type replNet struct {
	t      *testing.T
	seed   int64
	dirs   map[int]string
	policy *fault.NetPolicy

	mu       sync.Mutex
	clusters map[int]*Cluster
}

const replNetSize = 3

func newReplNet(t *testing.T, seed int64) *replNet {
	t.Helper()
	rn := &replNet{
		t:        t,
		seed:     seed,
		dirs:     map[int]string{},
		policy:   fault.NewNetPolicy(seed),
		clusters: map[int]*Cluster{},
	}
	for id := 0; id < replNetSize; id++ {
		rn.dirs[id] = t.TempDir()
	}
	t.Cleanup(rn.stopAll)
	return rn
}

func (rn *replNet) peers() map[int]string {
	p := map[int]string{}
	for id := 0; id < replNetSize; id++ {
		p[id] = fmt.Sprintf("http://replica-%d", id)
	}
	return p
}

func (rn *replNet) start(id int) *Cluster {
	rn.t.Helper()
	c, err := NewCluster(ClusterConfig{
		Spec:       testSpec,
		Nodes:      2,
		QueueDepth: 64,
		Durability: &DurabilityConfig{Dir: rn.dirs[id]},
		Replication: &ReplicationConfig{
			ID:                id,
			Replicas:          replNetSize,
			Peers:             rn.peers(),
			Transport:         &replNetTransport{net: rn, from: id},
			HeartbeatInterval: 5 * time.Millisecond,
			ElectionTimeout:   60 * time.Millisecond,
			Seed:              rn.seed + int64(id),
		},
	})
	if err != nil {
		rn.t.Fatalf("start replica %d: %v", id, err)
	}
	rn.mu.Lock()
	rn.clusters[id] = c
	rn.mu.Unlock()
	return c
}

// stop deregisters the replica (peers immediately see it dead) and closes
// it. Close on a deposed/partitioned leader is bounded by check-quorum.
func (rn *replNet) stop(id int) {
	rn.mu.Lock()
	c := rn.clusters[id]
	delete(rn.clusters, id)
	rn.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

func (rn *replNet) stopAll() {
	for id := 0; id < replNetSize; id++ {
		rn.stop(id)
	}
}

func (rn *replNet) cluster(id int) *Cluster {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	return rn.clusters[id]
}

func (rn *replNet) live() []*Cluster {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	ids := make([]int, 0, len(rn.clusters))
	for id := range rn.clusters {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]*Cluster, 0, len(ids))
	for _, id := range ids {
		out = append(out, rn.clusters[id])
	}
	return out
}

// waitLeader blocks until some live replica is a ready leader.
func (rn *replNet) waitLeader(timeout time.Duration) *Cluster {
	rn.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, c := range rn.live() {
			if c.leaderCheck() == nil {
				return c
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	rn.t.Fatalf("no ready leader within %v", timeout)
	return nil
}

type replNetTransport struct {
	net  *replNet
	from int
}

func (tr *replNetTransport) dial(peer int) (*repl.Node, error) {
	delay, ok := tr.net.policy.Admit(tr.from, peer)
	if !ok {
		return nil, errors.New("fault: message dropped")
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	c := tr.net.cluster(peer)
	if c == nil || c.repl == nil {
		return nil, errors.New("fault: peer down")
	}
	return c.repl, nil
}

func (tr *replNetTransport) Append(ctx context.Context, peer int, req repl.AppendRequest) (repl.AppendResponse, error) {
	n, err := tr.dial(peer)
	if err != nil {
		return repl.AppendResponse{}, err
	}
	return n.HandleAppend(req), nil
}

func (tr *replNetTransport) Vote(ctx context.Context, peer int, req repl.VoteRequest) (repl.VoteResponse, error) {
	n, err := tr.dial(peer)
	if err != nil {
		return repl.VoteResponse{}, err
	}
	return n.HandleVote(req), nil
}

func (tr *replNetTransport) TimeoutNow(ctx context.Context, peer int) error {
	n, err := tr.dial(peer)
	if err != nil {
		return err
	}
	n.HandleTimeoutNow()
	return nil
}

// retryable reports errors the mutation driver retries through: elections,
// redirects, warming leaders, indeterminate commits, load sheds, and
// replicas caught mid-restart.
func retryable(err error) bool {
	var nl *NotLeaderError
	var ae *core.AdmissionError
	return errors.As(err, &nl) ||
		errors.As(err, &ae) ||
		errors.Is(err, ErrNoLeader) ||
		errors.Is(err, ErrLeaderNotReady) ||
		errors.Is(err, ErrIndeterminate) ||
		errors.Is(err, ErrPendingID) ||
		errors.Is(err, ErrClusterClosed)
}

// place drives one placement to a determinate outcome: true when the
// cluster committed it (an eventual duplicate-id conflict after an
// indeterminate attempt counts — that IS the commit surfacing), false when
// every node determinately rejected it.
func (rn *replNet) place(t *testing.T, id string, set plan.TaskSet) bool {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		c := rn.waitLeader(10 * time.Second)
		res, err := c.Place(context.Background(), id, set)
		switch {
		case err == nil:
			return res.Placed
		case errors.Is(err, ErrDuplicateID):
			return true
		case retryable(err):
			time.Sleep(2 * time.Millisecond)
		default:
			t.Fatalf("place %q: unexpected error %v", id, err)
		}
	}
	t.Fatalf("place %q never reached a determinate outcome", id)
	return false
}

// placeDAG drives one DAG admission to a determinate outcome, mirroring
// place: true when the derived server task committed, false on a
// determinate rejection (analytical or placement).
func (rn *replNet) placeDAG(t *testing.T, id string, task dag.Task, analyzer string) bool {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		c := rn.waitLeader(10 * time.Second)
		res, err := c.PlaceDAG(context.Background(), id, task, analyzer)
		switch {
		case err == nil:
			return res.Placed
		case errors.Is(err, ErrDuplicateID):
			return true
		case retryable(err):
			time.Sleep(2 * time.Millisecond)
		default:
			t.Fatalf("placeDAG %q: unexpected error %v", id, err)
		}
	}
	t.Fatalf("placeDAG %q never reached a determinate outcome", id)
	return false
}

// remove drives one removal of a known-placed id to completion.
func (rn *replNet) remove(t *testing.T, id string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		c := rn.waitLeader(10 * time.Second)
		_, err := c.Remove(context.Background(), id)
		switch {
		case err == nil:
			return
		case errors.Is(err, ErrUnknownID):
			// A previous indeterminate attempt committed.
			return
		case retryable(err):
			time.Sleep(2 * time.Millisecond)
		default:
			t.Fatalf("remove %q: unexpected error %v", id, err)
		}
	}
	t.Fatalf("remove %q never reached a determinate outcome", id)
}

// placedIDs snapshots the non-pending ids in a replica's placement map.
func placedIDs(c *Cluster) map[string]bool {
	out := map[string]bool{}
	c.mu.Lock()
	for id, rec := range c.placements {
		if !rec.pending {
			out[id] = true
		}
	}
	c.mu.Unlock()
	return out
}

// durableViewRepl marshals a replica's status with every per-replica
// session field stripped: what remains is a pure function of the
// committed log prefix and must match byte-for-byte across replicas.
func durableViewRepl(t *testing.T, c *Cluster) string {
	t.Helper()
	st := c.Status()
	st.Durability = nil
	st.Replication = nil
	st.Rejected = 0
	st.Canceled = 0
	st.Unmatched = 0
	// DAG submission tallies are leader-session counters; only the
	// placements and the replicated placed total are functions of the log.
	if st.DAG != nil {
		st.DAG.Submitted, st.DAG.Admitted, st.DAG.Rejected = 0, 0, 0
		if *st.DAG == (DAGStatus{}) {
			st.DAG = nil
		}
	}
	for i := range st.Nodes {
		st.Nodes[i].QueueDepth = 0
		st.Nodes[i].Draining = false
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshal status: %v", err)
	}
	return string(b)
}

// waitConverged blocks until every live replica reports the same durable
// view, returning it.
func (rn *replNet) waitConverged(t *testing.T, timeout time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var views []string
	for time.Now().Before(deadline) {
		live := rn.live()
		views = views[:0]
		for _, c := range live {
			views = append(views, durableViewRepl(t, c))
		}
		same := len(views) > 0
		for _, v := range views[1:] {
			if v != views[0] {
				same = false
				break
			}
		}
		if same {
			return views[0]
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("replicas never converged; views:\n%s", strings.Join(views, "\n"))
	return ""
}

func TestReplicatedPlaceSurvivesLeaderFailover(t *testing.T) {
	rn := newReplNet(t, 11)
	for id := 0; id < replNetSize; id++ {
		rn.start(id)
	}
	leader := rn.waitLeader(10 * time.Second)
	leaderID := leader.cfg.Replication.ID

	for i := 0; i < 4; i++ {
		if !rn.place(t, fmt.Sprintf("s%d", i), setOfUtil(0.10)) {
			t.Fatalf("place s%d rejected", i)
		}
	}
	rn.waitConverged(t, 5*time.Second)

	// Kill the leader; a follower must take over with every acked
	// placement intact.
	rn.stop(leaderID)
	next := rn.waitLeader(10 * time.Second)
	if next.cfg.Replication.ID == leaderID {
		t.Fatalf("dead leader %d still leads", leaderID)
	}
	ids := placedIDs(next)
	for i := 0; i < 4; i++ {
		if !ids[fmt.Sprintf("s%d", i)] {
			t.Fatalf("placement s%d lost in failover; have %v", i, ids)
		}
	}

	// The survivors still form a majority: mutations keep committing.
	if !rn.place(t, "post", setOfUtil(0.10)) {
		t.Fatalf("post-failover place rejected")
	}
	rn.remove(t, "s0")

	// Restart the dead replica; it catches up to the same durable view.
	rn.start(leaderID)
	view := rn.waitConverged(t, 10*time.Second)
	if !strings.Contains(view, `"placements":4`) {
		t.Fatalf("converged view lost placements: %s", view)
	}
}

func TestReplicatedFollowerRedirectsAndServesStatus(t *testing.T) {
	rn := newReplNet(t, 23)
	for id := 0; id < replNetSize; id++ {
		rn.start(id)
	}
	leader := rn.waitLeader(10 * time.Second)
	leaderID := leader.cfg.Replication.ID
	if !rn.place(t, "a", setOfUtil(0.10)) {
		t.Fatalf("place rejected")
	}

	var follower *Cluster
	for _, c := range rn.live() {
		if c.cfg.Replication.ID != leaderID {
			follower = c
			break
		}
	}
	_, err := follower.Place(context.Background(), "b", setOfUtil(0.10))
	var nl *NotLeaderError
	if !errors.As(err, &nl) {
		t.Fatalf("follower place error = %v, want NotLeaderError", err)
	}
	if nl.LeaderID != leaderID || nl.LeaderURL != fmt.Sprintf("http://replica-%d", leaderID) {
		t.Fatalf("redirect names %d at %q, want leader %d", nl.LeaderID, nl.LeaderURL, leaderID)
	}

	// The follower's status is its durable view of the same log.
	rn.waitConverged(t, 5*time.Second)
	st := follower.Status()
	if st.Placements != 1 || st.Placed != 1 {
		t.Fatalf("follower status = %d placements / %d placed, want 1/1", st.Placements, st.Placed)
	}
	if st.Replication == nil || st.Replication.Role != "follower" || st.Replication.Leader != leaderID {
		t.Fatalf("follower replication block = %+v", st.Replication)
	}
	if st.Durability == nil || st.Durability.SyncedLSN == 0 {
		t.Fatalf("follower durability block = %+v", st.Durability)
	}
}

func TestReplicatedMetricsRender(t *testing.T) {
	rn := newReplNet(t, 31)
	for id := 0; id < replNetSize; id++ {
		rn.start(id)
	}
	leader := rn.waitLeader(10 * time.Second)
	if !rn.place(t, "m", setOfUtil(0.10)) {
		t.Fatalf("place rejected")
	}
	reg := NewRegistry()
	leader.RegisterMetrics(reg)
	text := reg.Render()
	for _, want := range []string{
		"hrtd_repl_term",
		"hrtd_repl_role 2",
		"hrtd_repl_is_leader 1",
		"hrtd_repl_commit_lsn",
		"hrtd_repl_applied_lsn",
		"hrtd_repl_elections_total",
		"hrtd_repl_redirects_total",
		"hrtd_wal_fsyncs_total",
		"hrtd_recovery_snapshot_lsn",
		`hrtd_repl_follower_match_lsn{peer="`,
		`hrtd_repl_follower_commit_lag{peer="`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestReplicatedPartitionFailoverProperty is the tentpole property test:
// random mutations driven against whichever replica currently leads, with
// leader kills, restarts, and minority partitions injected throughout. An
// in-memory twin records every determinate ack. Afterwards the healed
// cluster — and a fully restarted one — must hold exactly the acked
// placements: nothing lost, nothing phantom.
func TestReplicatedPartitionFailoverProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test: long")
	}
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runReplProperty(t, seed)
		})
	}
}

func runReplProperty(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rn := newReplNet(t, seed)
	for id := 0; id < replNetSize; id++ {
		rn.start(id)
	}
	rn.waitLeader(10 * time.Second)

	twin := map[string]bool{} // acked-placed ids not acked-removed
	nextID := 0
	const ops = 90
	for i := 0; i < ops; i++ {
		if i%18 == 17 {
			switch rng.Intn(3) {
			case 0:
				// Kill whoever leads right now and bring it back: a full
				// crash-the-leader failover mid-stream.
				c := rn.waitLeader(10 * time.Second)
				id := c.cfg.Replication.ID
				rn.stop(id)
				rn.start(id)
			case 1:
				// Isolate one replica for a few election timeouts, then
				// heal. Isolating the leader forces a failover AND a
				// divergent-suffix truncation when it rejoins.
				iso := rng.Intn(replNetSize)
				var rest []int
				for id := 0; id < replNetSize; id++ {
					if id != iso {
						rest = append(rest, id)
					}
				}
				rn.policy.Partition([]int{iso}, rest)
				time.Sleep(100 * time.Millisecond)
				rn.policy.Heal()
			case 2:
				// Lossy network for a stretch of mutations.
				rn.policy.SetDrop(0.15)
				defer rn.policy.SetDrop(0)
				time.Sleep(20 * time.Millisecond)
				rn.policy.SetDrop(0)
			}
		}
		var placeable []string
		for id := range twin {
			placeable = append(placeable, id)
		}
		if rng.Float64() < 0.7 || len(placeable) == 0 {
			if rng.Float64() < 0.25 {
				// A DAG admission replicating as KindPlaceDAG: the follower
				// applies the stored server task, never re-running the RTA.
				id := fmt.Sprintf("dag-%d", nextID)
				nextID++
				task := dag.Task{
					Nodes: []dag.Node{
						{WCETNs: (20 + rng.Int63n(80)) * 1000},
						{WCETNs: (20 + rng.Int63n(80)) * 1000},
						{WCETNs: (20 + rng.Int63n(80)) * 1000},
					},
					Edges:    []dag.Edge{{From: 0, To: 1}, {From: 0, To: 2}},
					PeriodNs: 10_000_000,
					Cores:    2,
				}
				analyzer := [3]string{"", "classical", "alpha-beta"}[rng.Intn(3)]
				if rn.placeDAG(t, id, task, analyzer) {
					twin[id] = true
				}
			} else {
				id := fmt.Sprintf("set-%d", nextID)
				nextID++
				if rn.place(t, id, setOfUtil(0.02+0.06*rng.Float64())) {
					twin[id] = true
				}
			}
		} else {
			sort.Strings(placeable)
			id := placeable[rng.Intn(len(placeable))]
			rn.remove(t, id)
			delete(twin, id)
		}
	}

	// Heal, converge, and compare the cluster's committed view with the
	// twin: every acked placement present, no phantoms.
	rn.policy.Heal()
	rn.policy.SetDrop(0)
	leader := rn.waitLeader(10 * time.Second)
	have := placedIDs(leader)
	for id := range twin {
		if !have[id] {
			t.Fatalf("seed %d: acked placement %q lost (have %d ids)", seed, id, len(have))
		}
	}
	for id := range have {
		if !twin[id] {
			t.Fatalf("seed %d: phantom placement %q survived", seed, id)
		}
	}
	view := rn.waitConverged(t, 10*time.Second)

	// Full cluster restart: recovery (snapshot + replicated log) must
	// rebuild the identical durable view.
	rn.stopAll()
	for id := 0; id < replNetSize; id++ {
		rn.start(id)
	}
	rn.waitLeader(10 * time.Second)
	leader = rn.waitLeader(10 * time.Second)
	have = placedIDs(leader)
	for id := range twin {
		if !have[id] {
			t.Fatalf("seed %d: placement %q lost across full restart", seed, id)
		}
	}
	for id := range have {
		if !twin[id] {
			t.Fatalf("seed %d: phantom %q after full restart", seed, id)
		}
	}
	restarted := rn.waitConverged(t, 10*time.Second)
	if restarted != view {
		t.Fatalf("seed %d: durable view changed across restart\nbefore: %s\nafter:  %s", seed, view, restarted)
	}
}
