package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hrtsched/internal/core"
	"hrtsched/internal/dag"
	"hrtsched/internal/durable"
	"hrtsched/internal/plan"
	"hrtsched/internal/repl"
)

// Cluster is the stateful placement service: a session tracking N
// simulated nodes, each owning a plan.Incremental admission engine behind
// a bounded, batching mutation queue (the same greedy-drain shape as the
// Server's shards — one worker goroutine per node). Named task sets are
// placed onto nodes first-fit or worst-fit, every bin decision consulting
// the incremental analysis; sessions can evict sets, drain whole nodes,
// and rebalance, and every outcome is countable through the metrics
// Registry. Every mutation takes one pipeline — evaluate on the node's
// worker, commit through the cluster's commitLog, fold into the placement
// map and counters — whatever the durability mode.
type Cluster struct {
	cfg   ClusterConfig
	nodes []*node

	wg sync.WaitGroup

	// closeMu serializes queue sends against Close, exactly like
	// Server.closeMu.
	closeMu sync.RWMutex
	closed  bool

	// mu guards placements; opMu serializes the multi-step admin
	// operations (drain, rebalance) against each other.
	mu         sync.Mutex
	placements map[string]*placementRec
	opMu       sync.Mutex

	// placeGate fences Place's candidate walk against Drain: every walk
	// holds the read lock, and Drain takes the write lock once after
	// setting a node's draining flag, so any walk that read the stale
	// flag has finished (and its placement is visible) before the drain
	// snapshots the node's sets.
	placeGate sync.RWMutex

	placed     atomic.Int64
	rejected   atomic.Int64
	removed    atomic.Int64
	rebalanced atomic.Int64
	drained    atomic.Int64
	canceled   atomic.Int64
	unmatched  atomic.Int64

	// DAG submission counters. dagPlaced counts committed DAG placements
	// (on fold, identically on every replica); the rest count on the
	// submitting leader only.
	dagSubmitted atomic.Int64
	dagAdmitted  atomic.Int64
	dagRejected  atomic.Int64
	dagPlaced    atomic.Int64

	// log commits every mutation before its client reply: a no-op in
	// memory, the local WAL, or the replicated log. recovery holds what
	// boot-time recovery found.
	log      commitLog
	recovery durable.RecoveryResult

	// Replicated mode (cfg.Replication non-nil): repl is the consensus
	// node, kept for the leadership surfaces (leaderCheck, redirects,
	// /repl/*, TransferLeadership). replBoot closes once repl is assigned,
	// so consensus callbacks can run during boot. replReadyTerm holds the
	// last term whose leader ramp (log catch-up plus orphan reconciliation)
	// completed on this replica.
	repl           *repl.Node
	replBoot       chan struct{}
	replReadyTerm  atomic.Uint64
	redirects      atomic.Int64
	replSkipped    atomic.Int64
	orphanReleases atomic.Int64
}

type placementRec struct {
	node    int
	set     plan.TaskSet
	util    float64
	dag     *durable.DAGMeta // provenance when the placement is a DAG reservation
	pending bool             // a mutation for this id is in flight
	// committed marks that fold has taken this id's place record in: an
	// indeterminate reply must not delete a placement the log holds.
	committed bool
}

// Policy selects how Place orders candidate nodes.
type Policy uint8

const (
	// FirstFit tries nodes in index order and takes the first that
	// admits the set.
	FirstFit Policy = iota
	// WorstFit tries the least-utilized node first, spreading load.
	WorstFit
)

// String names the policy with its flag spelling.
func (p Policy) String() string {
	switch p {
	case FirstFit:
		return "first-fit"
	case WorstFit:
		return "worst-fit"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// ParsePolicy parses a policy flag value.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "first-fit":
		return FirstFit, nil
	case "worst-fit":
		return WorstFit, nil
	default:
		return 0, fmt.Errorf("serve: unknown placement policy %q (want first-fit or worst-fit)", s)
	}
}

// ClusterConfig parameterizes a Cluster. Zero fields take defaults.
type ClusterConfig struct {
	// Spec is the per-node platform model every admission runs against.
	Spec plan.Spec
	// Nodes is the number of simulated nodes; default 4.
	Nodes int
	// Policy selects candidate-node ordering; default FirstFit.
	Policy Policy
	// QueueDepth bounds each node's mutation queue; default 256.
	QueueDepth int
	// Durability, when non-nil, persists every committed mutation to a
	// write-ahead log under Durability.Dir and recovers it at startup.
	Durability *DurabilityConfig
	// Replication, when non-nil, replicates the write-ahead log to peer
	// replicas and acknowledges mutations only on a majority fsync.
	// Requires Durability.
	Replication *ReplicationConfig
}

func (c *ClusterConfig) fillDefaults() {
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
}

// Validate rejects nonsensical settings.
func (c ClusterConfig) Validate() error {
	if c.Nodes < 0 || c.QueueDepth < 0 {
		return fmt.Errorf("serve: negative cluster config value: %+v", c)
	}
	if c.Policy != FirstFit && c.Policy != WorstFit {
		return fmt.Errorf("serve: unknown placement policy %d", c.Policy)
	}
	if err := checkSpec(c.Spec); err != nil {
		return err
	}
	if c.Durability != nil && c.Durability.Dir == "" {
		return errors.New("serve: Durability.Dir is required when durability is enabled")
	}
	if r := c.Replication; r != nil {
		if c.Durability == nil {
			return errors.New("serve: Replication requires Durability")
		}
		if r.Replicas < 1 {
			return fmt.Errorf("serve: Replication.Replicas %d, want >= 1", r.Replicas)
		}
		if r.ID < 0 || r.ID >= r.Replicas {
			return fmt.Errorf("serve: Replication.ID %d outside [0,%d)", r.ID, r.Replicas)
		}
		if r.Transport == nil && r.Replicas > 1 && len(r.Peers) == 0 {
			return errors.New("serve: Replication.Peers is required without a custom transport")
		}
	}
	return nil
}

type mutOp uint8

const (
	placeOp mutOp = iota
	removeOp
	// evalOp answers EvaluateGang against the node's committed state
	// without mutating anything — the what-if probe the shard router uses
	// before committing a cross-group migration. Never logged or
	// replicated: it changes nothing.
	evalOp
)

type mutation struct {
	ctx context.Context
	op  mutOp
	set plan.TaskSet
	// id and origin identify the mutation in its log record.
	id     string
	origin durable.Origin
	// dag, when non-nil, marks a place as a DAG reservation: the record is
	// logged as KindPlaceDAG carrying this provenance.
	dag  *durable.DAGMeta
	done chan mutResult
}

type mutResult struct {
	verdict plan.Verdict
	// err, when non-nil, is a commit failure (only the replicated log can
	// fail one): the record was not knowably committed, so the verdict is
	// meaningless.
	err error
	// matched is true when the mutation changed the engine as intended:
	// always for an applied place, and only when RemoveGang actually
	// found the set for a remove. A false matched on a remove means the
	// placement map and the engine disagreed — state divergence the
	// caller must surface, never absorb.
	matched  bool
	canceled bool
}

type node struct {
	id  int
	ch  chan *mutation
	eng *plan.Incremental
	// engMu guards eng: the worker holds it across a batch's evaluation,
	// and the replicated log's apply loop across each committed record.
	engMu sync.Mutex
	// svc sizes the shed retry-after quote.
	svc serviceTime
	// recs is the worker's record scratch, reused batch to batch.
	recs []durable.Record

	utilBits atomic.Uint64 // math.Float64bits of the node's utilization
	tasks    atomic.Int64
	sets     atomic.Int64
	draining atomic.Bool

	shed     atomic.Int64
	applied  atomic.Int64 // committed records folded in
	canceled atomic.Int64
	incOps   atomic.Int64 // engine's incremental-path verdicts
	fullOps  atomic.Int64 // engine's full-analysis fallbacks
}

func (n *node) utilization() float64 { return math.Float64frombits(n.utilBits.Load()) }

// syncGauges refreshes the node's published gauges from its engine.
func (n *node) syncGauges() {
	n.utilBits.Store(math.Float64bits(n.eng.Utilization()))
	n.tasks.Store(int64(n.eng.Len()))
	st := n.eng.Stats()
	n.incOps.Store(st.IncrementalOps)
	n.fullOps.Store(st.FullAnalyses)
}

// Errors returned by cluster session operations.
var (
	ErrClusterClosed = errors.New("serve: cluster closed")
	ErrDuplicateID   = errors.New("serve: placement id already in use")
	ErrUnknownID     = errors.New("serve: unknown placement id")
	ErrUnknownNode   = errors.New("serve: unknown node")
	ErrPendingID     = errors.New("serve: placement id has a mutation in flight")
	// ErrLostPlacement reports that a placement record's set was not
	// found on its recorded node: the session's map and the node's
	// engine diverged. The stale record is dropped and the divergence
	// counted in hrtd_cluster_unmatched_removals_total.
	ErrLostPlacement = errors.New("serve: placement not found on its node (state divergence)")
)

// NewCluster starts a placement session with cfg's node workers running.
// With cfg.Durability set it first recovers the previous session from
// disk — load snapshot, replay the WAL suffix, reconcile orphans — before
// any worker accepts a mutation. Close releases them.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	c, err := newCluster(cfg)
	if err != nil {
		return nil, err
	}
	for _, n := range c.nodes {
		c.wg.Add(1)
		go c.runNode(n)
	}
	return c, nil
}

// newCluster builds and recovers the cluster without starting node
// workers; tests use it to exercise queue-full, cancellation and group
// commit behaviour deterministically.
func newCluster(cfg ClusterConfig) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	c := &Cluster{
		cfg:        cfg,
		nodes:      make([]*node, cfg.Nodes),
		placements: make(map[string]*placementRec),
		replBoot:   make(chan struct{}),
	}
	for i := range c.nodes {
		c.nodes[i] = &node{
			id:  i,
			ch:  make(chan *mutation, cfg.QueueDepth),
			eng: plan.NewIncremental(cfg.Spec),
		}
		c.nodes[i].svc.ns.Store(queueSeedServiceNs)
	}
	c.log = memLog{c}
	var err error
	switch {
	case cfg.Replication != nil:
		err = c.openReplication()
	case cfg.Durability != nil:
		err = c.openDurability()
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Close stops accepting mutations, drains the node queues, and waits for
// the workers to exit. Safe to call more than once.
func (c *Cluster) Close() {
	c.closeMu.Lock()
	if c.closed {
		c.closeMu.Unlock()
		return
	}
	c.closed = true
	c.closeMu.Unlock()
	for _, n := range c.nodes {
		close(n.ch)
	}
	c.wg.Wait()
	// Workers are gone, so the log is quiescent: closing it cuts a final
	// snapshot that makes the next boot replay-free.
	c.log.close()
}

// PlaceResult reports one placement attempt.
type PlaceResult struct {
	// Placed is true when some node admitted the set.
	Placed bool `json:"placed"`
	// Node is the admitting node, -1 when rejected everywhere.
	Node int `json:"node"`
	// Attempts is the number of nodes consulted.
	Attempts int `json:"attempts"`
	// Verdict is the admitting node's verdict (or the last rejecting
	// node's, when Placed is false).
	Verdict plan.Verdict `json:"verdict"`
}

// Place admits the named task set onto the first node (in policy order)
// whose incremental analysis accepts it. A set every node rejects returns
// Placed=false with a nil error; errors report session problems (closed,
// duplicate id, shed queue, canceled context). Place is a one-item
// PlaceBatch, so single and batched placements share one code path and
// identical per-item behavior.
func (c *Cluster) Place(ctx context.Context, id string, set plan.TaskSet) (PlaceResult, error) {
	res := c.PlaceBatch(ctx, []BatchPlaceItem{{ID: id, Tasks: set}})
	return res[0].Result, res[0].Err
}

// BatchPlaceItem is one candidate placement in a PlaceBatch call.
type BatchPlaceItem struct {
	ID    string       `json:"id"`
	Tasks plan.TaskSet `json:"tasks"`
}

// BatchPlaceResult is one item's outcome in a PlaceBatch envelope: the
// PlaceResult is meaningful when Err is nil, and Err carries the same
// session errors Place returns for a single item.
type BatchPlaceResult struct {
	ID     string
	Result PlaceResult
	Err    error
}

// PlaceBatch admits many task sets in one call, fanning the items out
// across the per-node admission workers concurrently instead of serially
// per mutation. Results are returned in input order and each item's
// outcome is exactly what Place would have returned for it alone.
//
// Ordering guarantees: items within one batch are admitted concurrently,
// so their relative admission order against each other is unspecified —
// but every individual admission is still serialized through the owning
// node's worker, evaluated against that node's committed state at its
// turn, and its verdict is planverify-exact for that state. Duplicate ids
// within the batch are rejected deterministically: the first occurrence
// (in input order) proceeds, later ones fail with ErrDuplicateID without
// racing the first.
func (c *Cluster) PlaceBatch(ctx context.Context, items []BatchPlaceItem) []BatchPlaceResult {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]BatchPlaceResult, len(items))
	leaderErr := c.leaderCheck()
	seen := make(map[string]bool, len(items))
	// Bound the fan-out so a huge batch cannot flood the per-node queues
	// into shedding everything: a few items in flight per node keeps every
	// worker busy without queue blowout.
	workers := 2 * len(c.nodes)
	if workers < 1 {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range items {
		out[i] = BatchPlaceResult{ID: items[i].ID, Result: PlaceResult{Node: -1}}
		badErr := c.checkPlacement(items[i].ID, items[i].Tasks)
		switch {
		case badErr != nil:
			out[i].Err = badErr
		case leaderErr != nil:
			out[i].Err = leaderErr
		case seen[items[i].ID]:
			out[i].Err = fmt.Errorf("%w: %q", ErrDuplicateID, items[i].ID)
		default:
			seen[items[i].ID] = true
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				set := append(plan.TaskSet(nil), items[i].Tasks...)
				out[i].Result, out[i].Err = c.placeSet(ctx, items[i].ID, set, nil)
			}(i)
		}
	}
	wg.Wait()
	return out
}

// checkPlacement applies the record codec's placement rule before
// admission, against the highest node a placement may land on: a
// placement the cluster acknowledges must also encode and replay.
func (c *Cluster) checkPlacement(id string, tasks plan.TaskSet) error {
	return durable.CheckPlacement(id, len(c.nodes)-1, tasks)
}

// placeSet is the shared commit path behind Place and PlaceDAG: reserve
// the id, walk candidates, and commit or roll back the placement record.
// meta, when non-nil, marks a DAG reservation (logged as KindPlaceDAG).
func (c *Cluster) placeSet(ctx context.Context, id string, set plan.TaskSet,
	meta *durable.DAGMeta) (PlaceResult, error) {
	c.mu.Lock()
	if _, exists := c.placements[id]; exists {
		c.mu.Unlock()
		return PlaceResult{Node: -1}, fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}
	rec := &placementRec{node: -1, set: set, dag: meta, pending: true}
	c.placements[id] = rec
	c.mu.Unlock()

	// The read lock pairs with Drain's write-lock barrier: it covers the
	// walk AND the record commit, so once Drain has the barrier, any set
	// this walk landed on the draining node is visible to its snapshot.
	c.placeGate.RLock()
	res, err := c.placeOnCandidates(ctx, id, set, c.candidates(), false, durable.OriginClient, meta)
	c.mu.Lock()
	switch {
	case rec.committed:
		// fold took the place record in (node and utilization included),
		// so the placement stands and only the in-flight marker clears —
		// even when a replicated reply was lost to a leadership change:
		// that caller sees an indeterminate error and, on retry, a
		// duplicate-id conflict that confirms the commit.
		rec.pending = false
	case c.placements[id] == rec:
		// Guarded: the apply loop may have dropped this rec already (a
		// skipped record) and a retry inserted its own — never delete a
		// successor's entry.
		delete(c.placements, id)
	}
	c.mu.Unlock()
	c.placeGate.RUnlock()
	if err == nil && !res.Placed {
		c.rejected.Add(1)
	}
	return res, err
}

// DAGPlaceResult reports one DAG submission: the response-time analysis
// verdict, the derived periodic server reservation, and (when the
// analysis admitted) the placement outcome across the nodes.
type DAGPlaceResult struct {
	// Placed is true when the analysis admitted AND some node reserved
	// the derived server task.
	Placed bool `json:"placed"`
	// Node is the reserving node, -1 otherwise.
	Node int `json:"node"`
	// Attempts is the number of nodes consulted (0 on an analysis reject).
	Attempts int `json:"attempts"`
	// Analysis is the RTA verdict, including the blocking path on reject.
	Analysis dag.Result `json:"analysis"`
	// ServerTask is the derived reservation (period, slice = bound); zero
	// when the analysis rejected.
	ServerTask plan.Task `json:"server_task"`
	// Verdict is the reserving node's admission verdict (or the last
	// rejecting node's when every node refused).
	Verdict plan.Verdict `json:"verdict"`
}

// PlaceDAG admits one periodic DAG task end to end: validate the graph,
// run the named response-time analysis (dag.NewAnalyzer names; ""
// defaults to classical), and — when the bound meets the deadline —
// reserve the derived periodic server task on the first admitting node,
// durably logged as a KindPlaceDAG record so replay and replicas rebuild
// the reservation without re-running the analysis. Structural rejections
// return a *dag.ValidationError; analytical and placement rejections
// return Placed=false with a nil error.
func (c *Cluster) PlaceDAG(ctx context.Context, id string, t dag.Task, analyzer string) (DAGPlaceResult, error) {
	res := DAGPlaceResult{Node: -1}
	if ctx == nil {
		ctx = context.Background()
	}
	// The reservation is always one server task.
	if err := c.checkPlacement(id, make(plan.TaskSet, 1)); err != nil {
		return res, err
	}
	if err := c.leaderCheck(); err != nil {
		return res, err
	}
	rta, err := dag.NewAnalyzer(analyzer)
	if err != nil {
		return res, err
	}
	c.dagSubmitted.Add(1)
	r, err := dag.Analyze(&t, rta)
	if err != nil {
		c.dagRejected.Add(1)
		return res, err
	}
	res.Analysis = r
	if !r.Admit {
		c.dagRejected.Add(1)
		return res, nil
	}
	c.dagAdmitted.Add(1)
	res.ServerTask = dag.ServerTask(&t, r)

	meta := &durable.DAGMeta{
		Cores:      t.Cores,
		PeriodNs:   t.PeriodNs,
		DeadlineNs: t.DeadlineNs,
		BoundNs:    r.BoundNs,
		Analyzer:   rta.Name(),
		WCETNs:     make([]int64, len(t.Nodes)),
		Edges:      make([][2]int, len(t.Edges)),
	}
	for i, n := range t.Nodes {
		meta.WCETNs[i] = n.WCETNs
	}
	for i, e := range t.Edges {
		meta.Edges[i] = [2]int{e.From, e.To}
	}
	pres, err := c.placeSet(ctx, id, plan.TaskSet{res.ServerTask}, meta)
	res.Placed, res.Node, res.Attempts, res.Verdict = pres.Placed, pres.Node, pres.Attempts, pres.Verdict
	return res, err
}

// AnalyzeDAG runs the named response-time analysis of t and places
// nothing: the /v1/dag/analyze answer.
// Structural rejections return a *dag.ValidationError.
func (c *Cluster) AnalyzeDAG(_ context.Context, t dag.Task, analyzer string) (dag.Result, error) {
	rta, err := dag.NewAnalyzer(analyzer)
	if err != nil {
		return dag.Result{}, err
	}
	return dag.Analyze(&t, rta)
}

// placeOnCandidates walks the candidate nodes in order, returning on the
// first admit. Session errors (shed, closed, canceled) abort the walk.
func (c *Cluster) placeOnCandidates(ctx context.Context, id string, set plan.TaskSet,
	order []*node, allowDraining bool, origin durable.Origin, dag *durable.DAGMeta) (PlaceResult, error) {
	res := PlaceResult{Node: -1}
	for _, n := range order {
		if !allowDraining && n.draining.Load() {
			continue
		}
		res.Attempts++
		r, err := c.submit(ctx, n, &mutation{op: placeOp, set: set, id: id, origin: origin, dag: dag})
		if err != nil {
			return res, err
		}
		res.Verdict = r.verdict
		if r.verdict.Admit {
			res.Placed = true
			res.Node = n.id
			return res, nil
		}
	}
	return res, nil
}

// NodeCount returns the number of simulated nodes in the session.
func (c *Cluster) NodeCount() int { return len(c.nodes) }

// Evaluate answers the what-if admission verdict for set against every
// node's committed state, in node order, committing nothing. It runs
// through the same per-node mutation queues as placements, so each verdict
// is serialized against that node's committed state at its turn. Evaluate
// is read-only and therefore answered on any replica, leader or not — the
// shard router uses it to probe a migration destination before committing
// an admit-before-release move.
func (c *Cluster) Evaluate(ctx context.Context, set plan.TaskSet) ([]plan.Verdict, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]plan.Verdict, len(c.nodes))
	for i, n := range c.nodes {
		r, err := c.submit(ctx, n, &mutation{op: evalOp, set: set})
		if err != nil {
			return nil, err
		}
		out[i] = r.verdict
	}
	return out, nil
}

// PlacementInfo is the router-facing view of one live placement.
type PlacementInfo struct {
	// Node holds the set.
	Node int
	// Tasks is a copy of the placed set.
	Tasks plan.TaskSet
	// Utilization is the set's summed utilization.
	Utilization float64
	// DAG is true for DAG server reservations, whose provenance cannot
	// survive a plain re-place on another group.
	DAG bool
}

// Placement looks up a live, non-pending placement by id.
func (c *Cluster) Placement(id string) (PlacementInfo, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.placements[id]
	if !ok || rec.pending {
		return PlacementInfo{}, false
	}
	return PlacementInfo{
		Node:        rec.node,
		Tasks:       append(plan.TaskSet(nil), rec.set...),
		Utilization: rec.util,
		DAG:         rec.dag != nil,
	}, true
}

// BestMovableUnder picks the largest non-pending, non-DAG placement
// anywhere in the session with utilization strictly inside (0, gap), or ""
// when none qualifies — the cluster-wide analogue of the per-node choice
// Rebalance makes, used by the router's cross-shard rebalance.
func (c *Cluster) BestMovableUnder(gap float64) (id string, info PlacementInfo, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	bestUtil := 0.0
	var best *placementRec
	for pid, rec := range c.placements {
		if rec.pending || rec.dag != nil {
			continue
		}
		if rec.util < gap && rec.util > bestUtil {
			id, best, bestUtil = pid, rec, rec.util
		}
	}
	if best == nil {
		return "", PlacementInfo{}, false
	}
	return id, PlacementInfo{
		Node:        best.node,
		Tasks:       append(plan.TaskSet(nil), best.set...),
		Utilization: best.util,
	}, true
}

// candidates returns nodes in the configured policy's order.
func (c *Cluster) candidates() []*node {
	order := append([]*node(nil), c.nodes...)
	if c.cfg.Policy == WorstFit {
		sort.SliceStable(order, func(i, j int) bool {
			return order[i].utilization() < order[j].utilization()
		})
	}
	return order
}

// Remove evicts the named set from its node and forgets the id. The
// verdict describes the node's remaining set.
func (c *Cluster) Remove(ctx context.Context, id string) (plan.Verdict, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := c.leaderCheck(); err != nil {
		return plan.Verdict{}, err
	}
	c.mu.Lock()
	rec, ok := c.placements[id]
	if !ok {
		c.mu.Unlock()
		return plan.Verdict{}, fmt.Errorf("%w: %q", ErrUnknownID, id)
	}
	if rec.pending {
		c.mu.Unlock()
		return plan.Verdict{}, fmt.Errorf("%w: %q", ErrPendingID, id)
	}
	rec.pending = true
	n := c.nodes[rec.node]
	c.mu.Unlock()

	r, err := c.submit(ctx, n, &mutation{op: removeOp, set: rec.set, id: id, origin: durable.OriginClient})
	c.mu.Lock()
	switch {
	case err != nil:
		rec.pending = false
	case c.placements[id] == rec:
		// fold already dropped a committed removal's entry; this drops an
		// unmatched one — and never a successor's.
		delete(c.placements, id)
	}
	c.mu.Unlock()
	if err != nil {
		return plan.Verdict{}, err
	}
	if !r.matched {
		// The engine never held this set: the record was stale. It is
		// dropped either way, but the divergence is surfaced, not
		// counted as a successful removal.
		c.unmatched.Add(1)
		return r.verdict, fmt.Errorf("%w: %q", ErrLostPlacement, id)
	}
	return r.verdict, nil
}

// DrainReport summarizes one node drain.
type DrainReport struct {
	// Node is the drained node.
	Node int `json:"node"`
	// Moved counts sets re-placed onto other nodes.
	Moved int `json:"moved"`
	// Stranded counts sets no other node admitted; they stay on the
	// draining node.
	Stranded int `json:"stranded"`
	// StrandedIDs names them.
	StrandedIDs []string `json:"stranded_ids,omitempty"`
}

// Drain marks a node as draining (no new placements) and re-places every
// set it holds onto the remaining nodes in policy order. Sets no other
// node admits are put back and reported stranded; the node stays draining
// either way until Undrain.
func (c *Cluster) Drain(ctx context.Context, nodeID int) (DrainReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if nodeID < 0 || nodeID >= len(c.nodes) {
		return DrainReport{Node: nodeID}, fmt.Errorf("%w: %d", ErrUnknownNode, nodeID)
	}
	if err := c.leaderCheck(); err != nil {
		return DrainReport{Node: nodeID}, err
	}
	c.opMu.Lock()
	defer c.opMu.Unlock()
	n := c.nodes[nodeID]
	n.draining.Store(true)

	// Barrier: a Place that read draining=false before the store above
	// may still be walking candidates and could land its set here after
	// we snapshot. Every walk holds placeGate's read lock, so acquiring
	// the write lock waits those walks out — after it, any set that
	// slipped onto this node is committed and visible to idsOnNode, and
	// all later walks see the draining flag.
	c.placeGate.Lock()
	c.placeGate.Unlock() //nolint:staticcheck // empty section is the barrier

	rep := DrainReport{Node: nodeID}
	for _, id := range c.idsOnNode(nodeID) {
		moved, err := c.moveSet(ctx, id, c.candidates(), n, durable.OriginDrain)
		if err != nil {
			return rep, err
		}
		if moved {
			rep.Moved++
		} else {
			rep.Stranded++
			rep.StrandedIDs = append(rep.StrandedIDs, id)
		}
	}
	return rep, nil
}

// Undrain re-opens a drained node for placements.
func (c *Cluster) Undrain(nodeID int) error {
	if nodeID < 0 || nodeID >= len(c.nodes) {
		return fmt.Errorf("%w: %d", ErrUnknownNode, nodeID)
	}
	if err := c.leaderCheck(); err != nil {
		return err
	}
	c.nodes[nodeID].draining.Store(false)
	return nil
}

// rebalanceSlack is the utilization spread below which Rebalance stops:
// moves that chase less than this much imbalance churn without benefit.
const rebalanceSlack = 0.02

// Rebalance greedily narrows the utilization spread: repeatedly move one
// set from the most- to the least-utilized node while a move that shrinks
// the spread exists. Returns the number of sets moved.
func (c *Cluster) Rebalance(ctx context.Context) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := c.leaderCheck(); err != nil {
		return 0, err
	}
	c.opMu.Lock()
	defer c.opMu.Unlock()

	moves := 0
	for iter := 0; iter < len(c.nodes)*4; iter++ {
		hi, lo := c.spreadEnds()
		if hi == nil || lo == nil || hi == lo {
			break
		}
		gap := hi.utilization() - lo.utilization()
		if gap <= rebalanceSlack {
			break
		}
		// The best movable set shrinks the spread the most: the largest
		// set smaller than the gap (moving anything larger would just
		// swap which node is overloaded).
		id := c.bestMovable(hi.id, gap)
		if id == "" {
			break
		}
		moved, err := c.moveSet(ctx, id, []*node{lo}, hi, durable.OriginRebalance)
		if err != nil {
			return moves, err
		}
		if !moved {
			break // the target rejected it (simulation, not arithmetic)
		}
		moves++
	}
	return moves, nil
}

// spreadEnds returns the most- and least-utilized non-draining nodes.
func (c *Cluster) spreadEnds() (hi, lo *node) {
	for _, n := range c.nodes {
		if n.draining.Load() {
			continue
		}
		if hi == nil || n.utilization() > hi.utilization() {
			hi = n
		}
		if lo == nil || n.utilization() < lo.utilization() {
			lo = n
		}
	}
	return hi, lo
}

// bestMovable picks the largest placement on the node with utilization
// strictly under gap (0 < util < gap), or "" when none qualifies.
func (c *Cluster) bestMovable(nodeID int, gap float64) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	best, bestUtil := "", 0.0
	for id, rec := range c.placements {
		if rec.node != nodeID || rec.pending {
			continue
		}
		if rec.util < gap && rec.util > bestUtil {
			best, bestUtil = id, rec.util
		}
	}
	return best
}

// idsOnNode snapshots the non-pending placement ids on a node.
func (c *Cluster) idsOnNode(nodeID int) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ids []string
	for id, rec := range c.placements {
		if rec.node == nodeID && !rec.pending {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// moveSet re-places id from `home` onto the first admitting node in
// `order`. The destination admits the set BEFORE home releases it — the
// per-node engines are independent, so the destination's verdict never
// needed home's capacity freed — which means a rejection or an error at
// any step leaves the set untouched on home: there is no put-back step
// that can fail and lose a placed set. Between the admit and the release
// the set is briefly reserved on both nodes; transient over-reservation
// is the only intermediate state, never loss.
func (c *Cluster) moveSet(ctx context.Context, id string, order []*node, home *node,
	origin durable.Origin) (bool, error) {
	c.mu.Lock()
	rec, ok := c.placements[id]
	if !ok || rec.pending || rec.node != home.id {
		c.mu.Unlock()
		return false, nil
	}
	rec.pending = true
	set := rec.set
	dagMeta := rec.dag
	c.mu.Unlock()

	// Never "move" onto the node being vacated: admitting a second copy
	// on home and then releasing one would churn the engine for nothing.
	dst := make([]*node, 0, len(order))
	for _, n := range order {
		if n != home {
			dst = append(dst, n)
		}
	}
	// A DAG reservation moves as a DAG record, so replay and replicas keep
	// its provenance no matter which node it lands on.
	res, err := c.placeOnCandidates(ctx, id, set, dst, false, origin, dagMeta)
	if err != nil || !res.Placed {
		c.mu.Lock()
		rec.pending = false
		c.mu.Unlock()
		return false, err
	}

	// fold pointed the record at the new home before the destination
	// answered, so at every instant it names a node whose engine holds the
	// set; the old copy is released only now.
	c.mu.Lock()
	rec.pending = false
	c.mu.Unlock()

	// Release home's copy. A client hangup must not abort a half-done
	// move, and a transient queue shed must not strand phantom demand on
	// home, so the release runs detached from ctx and retries through
	// sheds until the home worker applies it (or the session closes,
	// which tears down both engines anyway).
	relCtx := context.WithoutCancel(ctx)
	for {
		r, rerr := c.submit(relCtx, home, &mutation{op: removeOp, set: set, id: id, origin: durable.OriginRelease})
		if rerr == nil {
			if !r.matched {
				c.unmatched.Add(1)
			}
			return true, nil
		}
		var ae *core.AdmissionError
		if !errors.As(rerr, &ae) {
			// Closed session: the destination placement stands; report
			// the error so the admin operation stops cleanly.
			return true, rerr
		}
		time.Sleep(time.Duration(ae.RetryAfterNs))
	}
}

// submit queues one mutation on a node and waits for the worker's answer,
// shedding with a structured retry-after error when the queue is full.
func (c *Cluster) submit(ctx context.Context, n *node, m *mutation) (mutResult, error) {
	m.ctx = ctx
	m.done = make(chan mutResult, 1)

	c.closeMu.RLock()
	if c.closed {
		c.closeMu.RUnlock()
		return mutResult{}, ErrClusterClosed
	}
	var shed bool
	select {
	case n.ch <- m:
	default:
		shed = true
	}
	c.closeMu.RUnlock()

	if shed {
		n.shed.Add(1)
		return mutResult{}, &core.AdmissionError{
			Reason:       "cluster-overload",
			Detail:       fmt.Sprintf("node %d mutation queue full (%d deep)", n.id, c.cfg.QueueDepth),
			RetryAfterNs: n.svc.retryAfterNs(len(n.ch), 1),
		}
	}
	// Once queued, the worker owns cancellation: it drops a mutation
	// whose context died while queued (answering canceled) and otherwise
	// applies it, answering exactly once either way. Abandoning this wait
	// on ctx.Done() instead would race the commit — the worker could
	// apply the mutation in the same instant, and a committed place
	// reported as canceled becomes phantom demand (or a committed remove
	// a lost set) that no caller can ever reconcile. The worker's answer
	// is authoritative, so we block for it; the wait is bounded by the
	// queue depth times the batch apply time.
	r := <-m.done
	if r.canceled {
		if err := ctx.Err(); err != nil {
			return mutResult{}, err
		}
		return mutResult{}, context.Canceled
	}
	if r.err != nil {
		return mutResult{}, r.err
	}
	return r, nil
}

// nodeBatch caps how many queued mutations one node worker applies (and
// commits) as a batch.
const nodeBatch = 32

// runNode is a node's worker loop: greedily drained batches, each through
// the commit pipeline.
func (c *Cluster) runNode(n *node) {
	defer c.wg.Done()
	greedyDrain(n.ch, nodeBatch, func(batch []*mutation) { c.applyBatch(n, batch) })
}

// NodeStatus is one node's row in the cluster status report.
type NodeStatus struct {
	Node        int     `json:"node"`
	Utilization float64 `json:"utilization"`
	Tasks       int64   `json:"tasks"`
	Sets        int64   `json:"sets"`
	Draining    bool    `json:"draining"`
	QueueDepth  int     `json:"queue_depth"`
}

// ClusterStatus is the session-wide status report.
type ClusterStatus struct {
	Nodes      []NodeStatus `json:"nodes"`
	Policy     string       `json:"policy"`
	Placements int          `json:"placements"`
	Placed     int64        `json:"placed_total"`
	Rejected   int64        `json:"rejected_total"`
	Removed    int64        `json:"removed_total"`
	Rebalanced int64        `json:"rebalanced_total"`
	Drained    int64        `json:"drained_total"`
	Canceled   int64        `json:"canceled_total"`
	// Unmatched counts removals whose set was not on its recorded node;
	// any nonzero value means placement state diverged from an engine.
	Unmatched int64 `json:"unmatched_removals_total"`
	// DAG reports DAG-submission activity; absent until the session sees
	// its first DAG (keeping DAG-free status byte-identical).
	DAG *DAGStatus `json:"dag,omitempty"`
	// Durability reports WAL/snapshot/recovery health; absent when
	// durability is off, keeping the disabled status byte-identical.
	Durability *DurabilityStatus `json:"durability,omitempty"`
	// Replication reports consensus health; absent when replication is
	// off, keeping single-replica status byte-identical.
	Replication *ReplicationStatus `json:"replication,omitempty"`
}

// DAGStatus is the DAG block of ClusterStatus.
type DAGStatus struct {
	// Placements counts live DAG reservations.
	Placements int `json:"placements"`
	// Submitted/Admitted/Rejected count this process's PlaceDAG calls
	// (admission-analysis outcomes); Placed counts committed DAG
	// reservations and is restored across recovery and replicated apply.
	Submitted int64 `json:"submitted_total"`
	Admitted  int64 `json:"admitted_total"`
	Rejected  int64 `json:"rejected_total"`
	Placed    int64 `json:"placed_total"`
}

// Status snapshots the cluster.
func (c *Cluster) Status() ClusterStatus {
	c.mu.Lock()
	perNode := make(map[int]int64)
	dagPlacements := 0
	for _, rec := range c.placements {
		if !rec.pending {
			perNode[rec.node]++
			if rec.dag != nil {
				dagPlacements++
			}
		}
	}
	placements := len(c.placements)
	c.mu.Unlock()

	st := ClusterStatus{
		Policy:      c.cfg.Policy.String(),
		Placements:  placements,
		Placed:      c.placed.Load(),
		Rejected:    c.rejected.Load(),
		Removed:     c.removed.Load(),
		Rebalanced:  c.rebalanced.Load(),
		Drained:     c.drained.Load(),
		Canceled:    c.canceled.Load(),
		Unmatched:   c.unmatched.Load(),
		Durability:  c.durabilityStatus(),
		Replication: c.replicationStatus(),
	}
	if d := (DAGStatus{
		Placements: dagPlacements,
		Submitted:  c.dagSubmitted.Load(),
		Admitted:   c.dagAdmitted.Load(),
		Rejected:   c.dagRejected.Load(),
		Placed:     c.dagPlaced.Load(),
	}); d != (DAGStatus{}) {
		st.DAG = &d
	}
	for _, n := range c.nodes {
		st.Nodes = append(st.Nodes, NodeStatus{
			Node:        n.id,
			Utilization: n.utilization(),
			Tasks:       n.tasks.Load(),
			Sets:        perNode[n.id],
			Draining:    n.draining.Load(),
			QueueDepth:  len(n.ch),
		})
	}
	return st
}

// RegisterMetrics exposes the cluster's counters and per-node gauges on a
// registry (typically the owning Server's, so one /metrics scrape covers
// both layers).
func (c *Cluster) RegisterMetrics(r *Registry) {
	perNode := func(val func(*node) float64) func() []Sample {
		return func() []Sample {
			out := make([]Sample, len(c.nodes))
			for i, n := range c.nodes {
				out[i] = Sample{Labels: []Label{{"node", fmt.Sprint(n.id)}}, Value: val(n)}
			}
			return out
		}
	}
	r.Gauge("hrtd_cluster_nodes", "Number of simulated placement nodes.",
		func() float64 { return float64(len(c.nodes)) })
	r.Counter("hrtd_cluster_placed_total", "Task sets successfully placed.",
		func() float64 { return float64(c.placed.Load()) })
	r.Counter("hrtd_cluster_rejected_total", "Task sets every node rejected.",
		func() float64 { return float64(c.rejected.Load()) })
	r.Counter("hrtd_cluster_removed_total", "Task sets evicted by clients.",
		func() float64 { return float64(c.removed.Load()) })
	r.Counter("hrtd_cluster_rebalanced_total", "Sets moved by rebalancing.",
		func() float64 { return float64(c.rebalanced.Load()) })
	r.Counter("hrtd_cluster_drained_total", "Sets moved off draining nodes.",
		func() float64 { return float64(c.drained.Load()) })
	r.Counter("hrtd_cluster_canceled_total", "Mutations dropped: context canceled while queued.",
		func() float64 { return float64(c.canceled.Load()) })
	r.Counter("hrtd_cluster_unmatched_removals_total",
		"Removals whose set was not on its recorded node (state divergence).",
		func() float64 { return float64(c.unmatched.Load()) })
	r.Counter("hrtd_dag_submitted_total", "DAG tasks submitted for admission.",
		func() float64 { return float64(c.dagSubmitted.Load()) })
	r.Counter("hrtd_dag_admitted_total", "DAG tasks whose response-time bound met the deadline.",
		func() float64 { return float64(c.dagAdmitted.Load()) })
	r.Counter("hrtd_dag_rejected_total",
		"DAG tasks rejected (structural, path-overrun, or deadline-miss).",
		func() float64 { return float64(c.dagRejected.Load()) })
	r.Counter("hrtd_dag_placed_total", "DAG server reservations committed to nodes.",
		func() float64 { return float64(c.dagPlaced.Load()) })
	r.Gauge("hrtd_dag_placements", "Live DAG reservations.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			n := 0
			for _, rec := range c.placements {
				if !rec.pending && rec.dag != nil {
					n++
				}
			}
			return float64(n)
		})
	r.GaugeVec("hrtd_cluster_node_utilization", "Admitted utilization per node.",
		perNode(func(n *node) float64 { return n.utilization() }))
	r.GaugeVec("hrtd_cluster_node_tasks", "Admitted tasks per node.",
		perNode(func(n *node) float64 { return float64(n.tasks.Load()) }))
	r.GaugeVec("hrtd_cluster_node_draining", "1 when the node is draining.",
		perNode(func(n *node) float64 {
			if n.draining.Load() {
				return 1
			}
			return 0
		}))
	r.GaugeVec("hrtd_cluster_queue_depth", "Mutations queued per node.",
		perNode(func(n *node) float64 { return float64(len(n.ch)) }))
	r.CounterVec("hrtd_cluster_mutations_total", "Committed mutations applied per node.",
		perNode(func(n *node) float64 { return float64(n.applied.Load()) }))
	r.CounterVec("hrtd_cluster_shed_total", "Load-shed mutations per node.",
		perNode(func(n *node) float64 { return float64(n.shed.Load()) }))
	r.CounterVec("hrtd_cluster_incremental_ops_total",
		"Admission verdicts answered by patching the node engine's demand table per node.",
		perNode(func(n *node) float64 { return float64(n.incOps.Load()) }))
	r.CounterVec("hrtd_cluster_full_analyses_total",
		"Demand tables the node engine built from scratch (snapshot restores) per node.",
		perNode(func(n *node) float64 { return float64(n.fullOps.Load()) }))
	if _, ok := c.log.stats(); ok {
		c.registerDurabilityMetrics(r)
	}
	if c.repl != nil {
		c.registerReplicationMetrics(r)
	}
}
