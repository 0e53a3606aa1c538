// Package route shards the placement fleet horizontally: the simulated
// node fleet is partitioned into K independent shard groups — each its own
// serve.Cluster (optionally with its own durability/replication stack) —
// behind a thin stateless Router that owns the node→group assignment via a
// rendezvous-hash map. Placements route to their owning group by id hash,
// batches are split per group and re-merged in input order, status is
// aggregated across groups with per-group staleness, and each group's
// 307/429 error contracts pass through unchanged (per-item in batches).
// Drain and Rebalance gain a cross-shard mode: the router probes migration
// destinations through the evaluate-only engine path before committing
// admit-before-release moves between groups.
//
// The router holds no placement state of its own — the id→group map is a
// pure hash and the node→group map is fixed at construction — so any
// number of router processes can front the same groups.
package route

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"hrtsched/internal/dag"
	"hrtsched/internal/durable"
	"hrtsched/internal/plan"
	"hrtsched/internal/serve"
	"hrtsched/internal/whatif"
)

// Group is one shard group: the subset of the placement surface the router
// fans out to, plus the what-if simulation pool. LocalGroup adapts an
// in-process serve.Cluster and the serve.Server that owns the pool;
// RemoteGroup speaks the /v1/ HTTP contract to a group daemon.
type Group interface {
	// NodeCount is the number of simulated nodes the group owns.
	NodeCount() int
	Place(ctx context.Context, id string, set plan.TaskSet) (serve.PlaceResult, error)
	PlaceBatch(ctx context.Context, items []serve.BatchPlaceItem) []serve.BatchPlaceResult
	PlaceDAG(ctx context.Context, id string, t dag.Task, analyzer string) (serve.DAGPlaceResult, error)
	AnalyzeDAG(ctx context.Context, t dag.Task, analyzer string) (dag.Result, error)
	Remove(ctx context.Context, id string) (plan.Verdict, error)
	// Drain and Undrain address the group's LOCAL node index; the router
	// translates global node ids through its partition map.
	Drain(ctx context.Context, localNode int) (serve.DrainReport, error)
	Undrain(ctx context.Context, localNode int) error
	Rebalance(ctx context.Context) (int, error)
	Status(ctx context.Context) (serve.ClusterStatus, error)
	Simulate(ctx context.Context, req serve.SimulateRequest) (*whatif.Report, error)
}

// Migrator is the optional capability a Group needs to participate in
// cross-shard migrations (evaluate-only probes plus placement
// introspection). LocalGroup implements it; RemoteGroup does not — remote
// groups keep their stranded sets, which the failure matrix in DESIGN.md
// §13 documents.
type Migrator interface {
	Evaluate(ctx context.Context, set plan.TaskSet) ([]plan.Verdict, error)
	Placement(id string) (serve.PlacementInfo, bool)
	BestMovableUnder(gap float64) (id string, info serve.PlacementInfo, ok bool)
}

// ErrUnknownGroupNode reports a global node id outside the partition map.
var errUnknownGroupNode = serve.ErrUnknownNode

// crossShardSlack is the per-group mean-utilization spread below which the
// cross-shard rebalance stops, mirroring the in-group rebalance slack.
const crossShardSlack = 0.02

// maxFanout bounds how many groups one request fans out to simultaneously
// (batch splits, status aggregation); fewer groups lower it to their count.
const maxFanout = 8

// Config parameterizes a Router. Zero fields take defaults.
type Config struct {
	// Partition assigns global node ids to groups: Partition[g][i] is the
	// global id of group g's local node i. Default: contiguous blocks in
	// group order. PartitionNodes builds a rendezvous-hashed assignment.
	Partition [][]int
	// StatusTimeout bounds each group's status fetch during aggregation;
	// an overrun marks the group unreachable and serves its last cached
	// status with an age. Default 2s.
	StatusTimeout time.Duration
}

type nodeRef struct {
	group, local int
}

// Router fans the placement surface out across shard groups.
type Router struct {
	groups []Group
	// names are the groups' rendezvous identities, "group-0", "group-1",
	// ...: they determine the id→group map, so every router over the same
	// groups routes alike.
	names []string
	cfg   Config

	// globalNodes maps a global node id to its owning group and local
	// index; partition is the inverse (group → local → global).
	globalNodes map[int]nodeRef
	partition   [][]int

	m routeMetrics

	// moveMu orders cross-shard moves against routed placements and
	// removals: a move holds it for writing, so a placement or removal,
	// holding it for reading, never sees a moving set in both groups or in
	// neither.
	moveMu sync.RWMutex

	// statusMu guards lastStatus, the per-group cache serving staleness
	// when a group is unreachable.
	statusMu   sync.Mutex
	lastStatus []cachedStatus
}

type cachedStatus struct {
	st serve.ClusterStatus
	at time.Time
	ok bool
}

// New builds a router over the given groups. At least one group is
// required; the partition map must cover every group's nodes with unique
// global ids.
func New(groups []Group, cfg Config) (*Router, error) {
	if len(groups) == 0 {
		return nil, errors.New("route: at least one group is required")
	}
	if cfg.Partition == nil {
		cfg.Partition = make([][]int, len(groups))
		next := 0
		for g, grp := range groups {
			ids := make([]int, grp.NodeCount())
			for i := range ids {
				ids[i] = next
				next++
			}
			cfg.Partition[g] = ids
		}
	}
	if len(cfg.Partition) != len(groups) {
		return nil, fmt.Errorf("route: partition has %d groups, router has %d", len(cfg.Partition), len(groups))
	}
	globalNodes := make(map[int]nodeRef)
	for g, ids := range cfg.Partition {
		if len(ids) != groups[g].NodeCount() {
			return nil, fmt.Errorf("route: partition gives group %d %d nodes, group owns %d",
				g, len(ids), groups[g].NodeCount())
		}
		for local, id := range ids {
			if _, dup := globalNodes[id]; dup {
				return nil, fmt.Errorf("route: global node %d assigned twice", id)
			}
			globalNodes[id] = nodeRef{group: g, local: local}
		}
	}
	if cfg.StatusTimeout <= 0 {
		cfg.StatusTimeout = 2 * time.Second
	}
	r := &Router{
		groups:      groups,
		names:       groupNames(len(groups)),
		cfg:         cfg,
		globalNodes: globalNodes,
		partition:   cfg.Partition,
		lastStatus:  make([]cachedStatus, len(groups)),
	}
	r.m.init(len(groups))
	return r, nil
}

// Groups returns the number of shard groups behind the router.
func (r *Router) Groups() int { return len(r.groups) }

// groupNames returns the rendezvous identities of k groups.
func groupNames(k int) []string {
	names := make([]string, k)
	for i := range names {
		names[i] = fmt.Sprintf("group-%d", i)
	}
	return names
}

// concurrency is how many groups one request fans out to at once.
func (r *Router) concurrency() int { return min(maxFanout, len(r.groups)) }

// fnv64Pair hashes a (name, key) pair: FNV-1a over both halves (a NUL
// separating them so ("ab","c") and ("a","bc") score differently), then a
// splitmix64-style finalizer. The finalizer matters: raw FNV-1a is nearly
// affine in the name's contribution (score_i ≈ nameConst_i + keyConst mod
// 2^64), so rendezvous comparisons between names degenerate into comparing
// wraparound gaps and one name can win almost every key.
func fnv64Pair(name, key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	h *= prime64 // NUL separator: ^= 0 is a no-op, the extra multiply is not
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// rendezvous picks the highest-random-weight name for key.
func rendezvous(key string, names []string) int {
	best, bestScore := 0, uint64(0)
	for i, n := range names {
		if s := fnv64Pair(n, key); i == 0 || s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// GroupFor maps a placement id to its owning group by rendezvous hash.
// Every router over the same group names computes the same map, so the
// router needs no shared state.
func (r *Router) GroupFor(id string) int { return rendezvous(id, r.names) }

// PartitionNodes assigns `total` global node ids across `groups` groups by
// rendezvous hash over the default group names, then rebalances so no
// group is empty (a cluster needs at least one node). Deterministic for a
// given (total, groups).
func PartitionNodes(total, groups int) [][]int {
	if groups < 1 {
		groups = 1
	}
	names := groupNames(groups)
	part := make([][]int, groups)
	for n := 0; n < total; n++ {
		g := rendezvous(fmt.Sprintf("node-%d", n), names)
		part[g] = append(part[g], n)
	}
	// No group may be empty: steal the last node of the largest group,
	// deterministically, until every group has one.
	for {
		empty, largest := -1, 0
		for g := range part {
			if len(part[g]) == 0 && empty == -1 {
				empty = g
			}
			if len(part[g]) > len(part[largest]) {
				largest = g
			}
		}
		if empty == -1 || len(part[largest]) <= 1 {
			break
		}
		n := part[largest][len(part[largest])-1]
		part[largest] = part[largest][:len(part[largest])-1]
		part[empty] = append(part[empty], n)
	}
	for g := range part {
		sort.Ints(part[g])
	}
	return part
}

// Place routes one placement to its owning group. The returned group index
// feeds the X-Hrtd-Shard-Group attribution header.
func (r *Router) Place(ctx context.Context, id string, set plan.TaskSet) (serve.PlaceResult, int, error) {
	g := r.GroupFor(id)
	r.moveMu.RLock()
	defer r.moveMu.RUnlock()
	if r.heldElsewhere(g, id) {
		return serve.PlaceResult{Node: -1}, g, r.heldElsewhereErr(id, set)
	}
	start := time.Now()
	res, err := r.groups[g].Place(ctx, id, set)
	r.m.observe(g, start, err)
	if err == nil && res.Placed {
		r.m.placed.Add(1)
	}
	return res, g, err
}

// Simulate routes one what-if request to the shard group owning the
// rendezvous hash of (scenario name, seed), so a sweep's grid spreads its
// CPU-heavy replications across every group. Errors, sheds included, pass
// through verbatim.
func (r *Router) Simulate(ctx context.Context, req serve.SimulateRequest) (*whatif.Report, int, error) {
	g := rendezvous(fmt.Sprintf("%s#%d", req.Scenario.Name, req.Seed), r.names)
	start := time.Now()
	rep, err := r.groups[g].Simulate(ctx, req)
	r.m.observe(g, start, err)
	return rep, g, err
}

// heldElsewhere reports whether a Migrator group other than g holds id,
// as a cross-shard move leaves it. A re-place of such an id answers as
// one cluster would: ErrDuplicateID, unless the request fails a check
// that cluster makes first (heldElsewhereErr, dagHeldElsewhere). Remote
// groups never take part in a move, so they are not asked. Callers hold
// moveMu for reading.
func (r *Router) heldElsewhere(g int, id string) bool {
	for og, grp := range r.groups {
		if mig, ok := grp.(Migrator); ok && og != g {
			if _, held := mig.Placement(id); held {
				return true
			}
		}
	}
	return false
}

func duplicateID(id string) error { return fmt.Errorf("%w: %q", serve.ErrDuplicateID, id) }

// heldElsewhereErr answers a place of id, which another group holds: the
// placement check one cluster over the whole fleet makes before its
// duplicate-id check (durable.CheckPlacement, e.g. the 400 for an empty
// task set), else ErrDuplicateID.
func (r *Router) heldElsewhereErr(id string, set plan.TaskSet) error {
	if err := durable.CheckPlacement(id, len(r.globalNodes)-1, set); err != nil {
		return err
	}
	return duplicateID(id)
}

// PlaceDAG routes one DAG submission to its owning group.
func (r *Router) PlaceDAG(ctx context.Context, id string, t dag.Task, analyzer string) (serve.DAGPlaceResult, int, error) {
	g := r.GroupFor(id)
	r.moveMu.RLock()
	defer r.moveMu.RUnlock()
	if r.heldElsewhere(g, id) {
		return r.dagHeldElsewhere(ctx, g, id, t, analyzer)
	}
	start := time.Now()
	res, err := r.groups[g].PlaceDAG(ctx, id, t, analyzer)
	r.m.observe(g, start, err)
	if err == nil && res.Placed {
		r.m.placed.Add(1)
	}
	return res, g, err
}

// dagHeldElsewhere answers a DAG submission whose id another group holds
// as one cluster would: a structural rejection or an analysis reject
// first (from the owner's AnalyzeDAG), ErrDuplicateID only for a DAG the
// analysis admits.
func (r *Router) dagHeldElsewhere(ctx context.Context, g int, id string, t dag.Task, analyzer string) (serve.DAGPlaceResult, int, error) {
	res := serve.DAGPlaceResult{Node: -1}
	start := time.Now()
	a, err := r.groups[g].AnalyzeDAG(ctx, t, analyzer)
	r.m.observe(g, start, err)
	if err != nil {
		return res, g, err
	}
	res.Analysis = a
	if !a.Admit {
		return res, g, nil
	}
	res.ServerTask = dag.ServerTask(&t, a)
	return res, g, duplicateID(id)
}

// AnalyzeDAG answers a placement-free DAG analysis. Analysis depends only
// on the shared platform spec, so any group can answer; group 0 does.
func (r *Router) AnalyzeDAG(ctx context.Context, t dag.Task, analyzer string) (dag.Result, error) {
	start := time.Now()
	res, err := r.groups[0].AnalyzeDAG(ctx, t, analyzer)
	r.m.observe(0, start, err)
	return res, err
}

// Remove routes an eviction to the id's owning group. A cross-shard
// migration may have moved the placement off its hash-owning group, so an
// unknown-id answer falls back to asking every other group before
// reporting the id unknown.
func (r *Router) Remove(ctx context.Context, id string) (plan.Verdict, int, error) {
	g := r.GroupFor(id)
	r.moveMu.RLock()
	defer r.moveMu.RUnlock()
	start := time.Now()
	v, err := r.groups[g].Remove(ctx, id)
	r.m.observe(g, start, err)
	if err == nil || !errors.Is(err, serve.ErrUnknownID) {
		return v, g, err
	}
	for og := range r.groups {
		if og == g {
			continue
		}
		start := time.Now()
		ov, oerr := r.groups[og].Remove(ctx, id)
		r.m.observe(og, start, oerr)
		if oerr == nil {
			return ov, og, nil
		}
		if !errors.Is(oerr, serve.ErrUnknownID) {
			return plan.Verdict{}, og, oerr
		}
	}
	return v, g, err
}

// BatchResult pairs the merged batch results with each item's owning
// group, in input order.
type BatchResult struct {
	Results []serve.BatchPlaceResult
	Groups  []int
}

// PlaceBatch splits a batch by owning group, fans the sub-batches out with
// bounded concurrency, and re-merges the answers in input order. Each
// group's items are forwarded in their original relative order, chunked to
// serve.DefaultMaxBatchItems, chunks applied sequentially per group — so
// in-batch duplicate-id semantics (first occurrence in input order wins)
// hold exactly as they do on one flat cluster. An item whose id another
// group holds answers heldElsewhereErr without being forwarded. With a
// single group the whole batch forwards unsplit, byte-identical to the
// unrouted path.
func (r *Router) PlaceBatch(ctx context.Context, items []serve.BatchPlaceItem) BatchResult {
	r.moveMu.RLock()
	defer r.moveMu.RUnlock()
	out := BatchResult{
		Results: make([]serve.BatchPlaceResult, len(items)),
		Groups:  make([]int, len(items)),
	}
	if len(r.groups) == 1 {
		start := time.Now()
		out.Results = r.groups[0].PlaceBatch(ctx, items)
		r.m.observe(0, start, nil)
		r.m.fanout(1)
		r.countPlaced(out.Results)
		return out
	}
	// Split: per-group item lists, preserving input order within a group.
	type member struct {
		item serve.BatchPlaceItem
		idx  int
	}
	perGroup := make([][]member, len(r.groups))
	for i, it := range items {
		g := r.GroupFor(it.ID)
		out.Groups[i] = g
		if r.heldElsewhere(g, it.ID) {
			out.Results[i] = serve.BatchPlaceResult{ID: it.ID, Result: serve.PlaceResult{Node: -1}, Err: r.heldElsewhereErr(it.ID, it.Tasks)}
			continue
		}
		perGroup[g] = append(perGroup[g], member{item: it, idx: i})
	}
	width := 0
	for _, ms := range perGroup {
		if len(ms) > 0 {
			width++
		}
	}
	r.m.fanout(width)
	sem := make(chan struct{}, r.concurrency())
	var wg sync.WaitGroup
	for g, ms := range perGroup {
		if len(ms) == 0 {
			continue
		}
		wg.Add(1)
		go func(g int, ms []member) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// Chunks run sequentially so a duplicate id split across chunks
			// still resolves in input order (the first chunk commits before
			// the second is judged).
			for off := 0; off < len(ms); off += serve.DefaultMaxBatchItems {
				end := min(off+serve.DefaultMaxBatchItems, len(ms))
				chunk := make([]serve.BatchPlaceItem, end-off)
				for i, m := range ms[off:end] {
					chunk[i] = m.item
				}
				start := time.Now()
				res := r.groups[g].PlaceBatch(ctx, chunk)
				r.m.observe(g, start, nil)
				for i, m := range ms[off:end] {
					out.Results[m.idx] = res[i]
				}
			}
		}(g, ms)
	}
	wg.Wait()
	r.countPlaced(out.Results)
	return out
}

// countPlaced feeds successful batch items into the router's placed
// counter.
func (r *Router) countPlaced(results []serve.BatchPlaceResult) {
	n := int64(0)
	for i := range results {
		if results[i].Err == nil && results[i].Result.Placed {
			n++
		}
	}
	if n > 0 {
		r.m.placed.Add(n)
	}
}

// DrainReport is the routed drain summary. With one group (or no
// cross-shard migrations) it marshals byte-identically to
// serve.DrainReport — the migrated fields are omitted when zero.
type DrainReport struct {
	Node        int      `json:"node"`
	Moved       int      `json:"moved"`
	Migrated    int      `json:"migrated,omitempty"`
	MigratedIDs []string `json:"migrated_ids,omitempty"`
	Stranded    int      `json:"stranded"`
	StrandedIDs []string `json:"stranded_ids,omitempty"`
}

// Drain drains one global node: the owning group re-places its sets
// in-group first, then the router tries to migrate each stranded set onto
// another group — evaluate-only probe first, then admit-before-release —
// so a set survives a drain whenever ANY group in the fleet can hold it.
func (r *Router) Drain(ctx context.Context, globalNode int) (DrainReport, error) {
	ref, ok := r.globalNodes[globalNode]
	if !ok {
		return DrainReport{Node: globalNode}, fmt.Errorf("%w: %d", errUnknownGroupNode, globalNode)
	}
	start := time.Now()
	rep, err := r.groups[ref.group].Drain(ctx, ref.local)
	r.m.observe(ref.group, start, err)
	out := DrainReport{
		Node:     globalNode,
		Moved:    rep.Moved,
		Stranded: rep.Stranded,
	}
	if err != nil {
		return out, err
	}
	if len(r.groups) == 1 {
		out.StrandedIDs = rep.StrandedIDs
		return out, nil
	}
	for _, id := range rep.StrandedIDs {
		if r.migrateOut(ctx, ref.group, id) {
			out.Migrated++
			out.MigratedIDs = append(out.MigratedIDs, id)
			out.Stranded--
		} else {
			out.StrandedIDs = append(out.StrandedIDs, id)
		}
	}
	return out, nil
}

// Undrain re-opens a drained global node.
func (r *Router) Undrain(ctx context.Context, globalNode int) (int, error) {
	ref, ok := r.globalNodes[globalNode]
	if !ok {
		return -1, fmt.Errorf("%w: %d", errUnknownGroupNode, globalNode)
	}
	start := time.Now()
	err := r.groups[ref.group].Undrain(ctx, ref.local)
	r.m.observe(ref.group, start, err)
	return ref.group, err
}

// migrateOut moves one placement from group src to the first other group
// whose evaluate-only probe admits it, destination groups tried in
// ascending mean-utilization order. DAG reservations never migrate (their
// provenance cannot survive a plain re-place).
func (r *Router) migrateOut(ctx context.Context, src int, id string) bool {
	mig, ok := r.groups[src].(Migrator)
	if !ok {
		return false
	}
	info, ok := mig.Placement(id)
	if !ok || info.DAG {
		return false
	}
	for _, dst := range r.groupsByUtilization(ctx, src) {
		if !r.probeAdmits(ctx, dst, info.Tasks) {
			continue
		}
		if admitted, moved := r.move(ctx, src, dst, id, info.Tasks); admitted {
			return moved
		}
	}
	r.m.migrationFails.Add(1)
	return false
}

// move migrates id from Migrator group src to group dst,
// admit-before-release: dst places the set before src drops it, so a
// failure at any step leaves the set placed somewhere. A failed release
// rolls the copy back rather than leave double-counted demand. The move
// holds moveMu for writing and does nothing unless src still holds
// exactly set. It reports whether dst admitted the set and whether the
// move completed; a failed release counts as a migration failure.
func (r *Router) move(ctx context.Context, src, dst int, id string, set plan.TaskSet) (admitted, moved bool) {
	r.moveMu.Lock()
	defer r.moveMu.Unlock()
	if info, ok := r.groups[src].(Migrator).Placement(id); !ok || !slices.Equal(info.Tasks, set) {
		return false, false
	}
	if res, err := r.groups[dst].Place(ctx, id, set); err != nil || !res.Placed {
		return false, false
	}
	if _, err := r.groups[src].Remove(ctx, id); err != nil {
		r.groups[dst].Remove(ctx, id) //nolint:errcheck — best-effort rollback
		r.m.migrationFails.Add(1)
		return true, false
	}
	r.m.migrations.Add(1)
	return true, true
}

// probeAdmits runs the evaluate-only engine path on a destination group
// and reports whether any node there admits the set.
func (r *Router) probeAdmits(ctx context.Context, g int, set plan.TaskSet) bool {
	mig, ok := r.groups[g].(Migrator)
	if !ok {
		return false
	}
	verdicts, err := mig.Evaluate(ctx, set)
	if err != nil {
		return false
	}
	for _, v := range verdicts {
		if v.Admit {
			return true
		}
	}
	return false
}

// groupsByUtilization orders every group but `exclude` by ascending mean
// node utilization (unreachable groups sort last).
func (r *Router) groupsByUtilization(ctx context.Context, exclude int) []int {
	type gu struct {
		g    int
		util float64
	}
	var gus []gu
	for g := range r.groups {
		if g == exclude {
			continue
		}
		gus = append(gus, gu{g: g, util: r.meanUtilization(ctx, g)})
	}
	sort.SliceStable(gus, func(i, j int) bool { return gus[i].util < gus[j].util })
	out := make([]int, len(gus))
	for i, e := range gus {
		out[i] = e.g
	}
	return out
}

// meanUtilization is group g's mean node utilization, +Inf when its status
// is unavailable (so it sorts last as a migration destination).
func (r *Router) meanUtilization(ctx context.Context, g int) float64 {
	st, err := r.groups[g].Status(ctx)
	if err != nil || len(st.Nodes) == 0 {
		return inf
	}
	sum := 0.0
	for _, n := range st.Nodes {
		sum += n.Utilization
	}
	return sum / float64(len(st.Nodes))
}

var inf = math.Inf(1)

// RebalanceReport is the routed rebalance summary. With one group (or no
// cross-shard moves) it marshals byte-identically to the unrouted
// {"moved":N} body.
type RebalanceReport struct {
	Moved    int `json:"moved"`
	Migrated int `json:"migrated,omitempty"`
}

// Rebalance rebalances every group internally, then narrows the spread of
// mean utilization ACROSS groups: repeatedly probe the best movable set of
// the most-utilized group against the least-utilized group's nodes
// (evaluate-only), and commit admit-before-release moves while the spread
// exceeds the slack. Remote groups participate as in-group rebalancers but
// are skipped as cross-shard sources/destinations (no Migrator).
func (r *Router) Rebalance(ctx context.Context) (RebalanceReport, error) {
	var rep RebalanceReport
	for g := range r.groups {
		start := time.Now()
		moved, err := r.groups[g].Rebalance(ctx)
		r.m.observe(g, start, err)
		rep.Moved += moved
		if err != nil {
			return rep, err
		}
	}
	if len(r.groups) == 1 {
		return rep, nil
	}
	for iter := 0; iter < len(r.groups)*4; iter++ {
		hi, lo, gap := r.spreadEnds(ctx)
		if hi < 0 || lo < 0 || hi == lo || gap <= crossShardSlack {
			break
		}
		himig, ok := r.groups[hi].(Migrator)
		if !ok {
			break
		}
		id, info, ok := himig.BestMovableUnder(gap)
		if !ok {
			break
		}
		if !r.probeAdmits(ctx, lo, info.Tasks) {
			break
		}
		admitted, moved := r.move(ctx, hi, lo, id, info.Tasks)
		if !moved {
			if !admitted {
				r.m.migrationFails.Add(1)
			}
			break
		}
		rep.Migrated++
	}
	return rep, nil
}

// spreadEnds finds the most- and least-utilized migratable groups and the
// mean-utilization gap between them.
func (r *Router) spreadEnds(ctx context.Context) (hi, lo int, gap float64) {
	hi, lo = -1, -1
	var hiU, loU float64
	for g := range r.groups {
		if _, ok := r.groups[g].(Migrator); !ok {
			continue
		}
		u := r.meanUtilization(ctx, g)
		if u == inf {
			continue
		}
		if hi < 0 || u > hiU {
			hi, hiU = g, u
		}
		if lo < 0 || u < loU {
			lo, loU = g, u
		}
	}
	return hi, lo, hiU - loU
}
