package dag

import "fmt"

// Reason says why a response-time analysis rejected a DAG task (or OK).
type Reason uint8

const (
	// OK: the bound meets the deadline.
	OK Reason = iota
	// PathOverrun: the critical path alone exceeds the deadline — no
	// number of cores can make this graph meet it.
	PathOverrun
	// DeadlineMiss: the response-time bound (path plus interference)
	// exceeds the deadline at the requested gang width.
	DeadlineMiss
)

// String names the reason with the stable tags used on the wire.
func (r Reason) String() string {
	switch r {
	case OK:
		return "ok"
	case PathOverrun:
		return "path-overrun"
	case DeadlineMiss:
		return "deadline-miss"
	default:
		return fmt.Sprintf("Reason(%d)", uint8(r))
	}
}

// MarshalText renders the reason tag into JSON and text encodings.
func (r Reason) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

// UnmarshalText parses a reason tag.
func (r *Reason) UnmarshalText(b []byte) error {
	for cand := OK; cand <= DeadlineMiss; cand++ {
		if string(b) == cand.String() {
			*r = cand
			return nil
		}
	}
	return fmt.Errorf("dag: unknown reason %q", b)
}

// Result is one response-time analysis verdict. It names the analyzer
// that produced it and, on rejection, carries the blocking path — the
// chain of nodes whose serialized execution drives the bound — so a
// client knows which dependency chain to break.
type Result struct {
	// Admit is true when the bound meets the deadline.
	Admit bool `json:"admit"`
	// Reason is OK when admitted, else the failing test's reason.
	Reason Reason `json:"reason"`
	// Analyzer names the RTA plug-in that produced the bound.
	Analyzer string `json:"analyzer"`
	// BoundNs is the response-time bound R for one release.
	BoundNs int64 `json:"bound_ns"`
	// CriticalPathNs is the blocking path's length L (the makespan floor).
	CriticalPathNs int64 `json:"critical_path_ns"`
	// VolumeNs is the total work V of one release.
	VolumeNs int64 `json:"volume_ns"`
	// InterferenceNs is the work the analysis charges against the path
	// (V - L for the classical bound, the priority-filtered subset for
	// the alpha-beta bound).
	InterferenceNs int64 `json:"interference_ns"`
	// BlockingPath is the blocking path as node indexes in execution
	// order.
	BlockingPath []int `json:"blocking_path"`
	// Utilization is V / period — the long-run core demand.
	Utilization float64 `json:"utilization"`
}

// Analyzer is a pluggable DAG response-time analysis: given a validated
// task, produce a deterministic admission verdict. Analyze may assume
// t.Validate() returned nil.
type Analyzer interface {
	// Name is the analyzer's stable wire name.
	Name() string
	// Analyze bounds the response time of one release of t.
	Analyze(t *Task) Result
}

// finish fills the shared Result fields and applies the admission test
// R <= D, charging interNs of interference on top of the path.
func finish(t *Task, name string, pathNs int64, path []int, interNs int64) Result {
	m := int64(t.Cores)
	r := Result{
		Analyzer:       name,
		CriticalPathNs: pathNs,
		VolumeNs:       t.Volume(),
		InterferenceNs: interNs,
		BlockingPath:   path,
		BoundNs:        pathNs + (interNs+m-1)/m,
		Utilization:    float64(t.Volume()) / float64(t.PeriodNs),
	}
	d := t.Deadline()
	switch {
	case r.BoundNs <= d:
		r.Admit = true
		r.Reason = OK
	case pathNs > d:
		r.Reason = PathOverrun
	default:
		r.Reason = DeadlineMiss
	}
	return r
}

// Classical is the 1/m self-interference bound (Graham's list-scheduling
// bound): R = L + ceil((V - L) / m). Every unit of non-path work may
// delay the path, spread over m cores. It is edge-monotone — adding a
// precedence edge leaves V unchanged and can only lengthen L, and
// L + ceil((V-L)/m) is non-decreasing in L — so tightening a graph's
// precedence can never flip a rejection into an admission (the
// randomized property test asserts exactly this).
type Classical struct{}

// Name returns "classical".
func (Classical) Name() string { return "classical" }

// Analyze bounds the response time with the 1/m bound.
func (Classical) Analyze(t *Task) Result {
	pathNs, path := t.CriticalPath()
	return finish(t, "classical", pathNs, path, t.Volume()-pathNs)
}

// PriorityPolicy assigns intra-task priorities to a validated task's
// nodes: Assign returns one rank per node, smaller = higher priority.
// Policies must be deterministic and topology-consistent (a node never
// outranks its own ancestor is NOT required — the analysis only uses
// ranks to bound interference).
type PriorityPolicy interface {
	// Name is the policy's stable name.
	Name() string
	// Assign returns a priority rank per node (smaller = higher).
	Assign(t *Task) []int
}

// TopoOrderPolicy ranks nodes by their deterministic topological order:
// earlier in the order = higher priority.
type TopoOrderPolicy struct{}

// Name returns "topo-order".
func (TopoOrderPolicy) Name() string { return "topo-order" }

// Assign ranks by topological position.
func (TopoOrderPolicy) Assign(t *Task) []int {
	ranks := make([]int, len(t.Nodes))
	for rank, u := range t.TopoOrder() {
		ranks[u] = rank
	}
	return ranks
}

// LongestPathFirstPolicy ranks nodes by descending downward path length
// (the longest chain starting at the node, inclusive): nodes on long
// chains get high priority, which is the classical heuristic for keeping
// the critical path moving. Ties break to the lower node index.
type LongestPathFirstPolicy struct{}

// Name returns "longest-path-first".
func (LongestPathFirstPolicy) Name() string { return "longest-path-first" }

// Assign ranks by descending downward chain length.
func (LongestPathFirstPolicy) Assign(t *Task) []int {
	order := t.TopoOrder()
	succ := t.succs()
	down := make([]int64, len(t.Nodes))
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		down[u] = t.Nodes[u].WCETNs
		for _, v := range succ[u] {
			if cand := t.Nodes[u].WCETNs + down[v]; cand > down[u] {
				down[u] = cand
			}
		}
	}
	idx := make([]int, len(t.Nodes))
	for i := range idx {
		idx[i] = i
	}
	// Selection order: longer chain first, index breaks ties.
	for i := 0; i < len(idx); i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if down[idx[j]] > down[idx[best]] ||
				(down[idx[j]] == down[idx[best]] && idx[j] < idx[best]) {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	ranks := make([]int, len(t.Nodes))
	for rank, u := range idx {
		ranks[u] = rank
	}
	return ranks
}

// AlphaBeta is the (alpha, beta)-style response-time bound for
// priority-ordered work-conserving scheduling: R = alpha + ceil(beta/m),
// where alpha is the critical path length L and beta is the interfering
// workload — the WCET of every off-path node that outranks (or ties)
// some path node under the policy's priorities. Under preemptive
// intra-task priority scheduling, whenever a path node is ready but not
// running every core is busy with strictly higher-priority work, so only
// such nodes can delay the path.
//
// beta is a subset of the classical bound's V - L by construction, so
// AlphaBeta is never looser than Classical on the same task (the
// property test asserts the tightness ordering). It is NOT
// edge-monotone: an added edge can re-rank nodes and shrink the
// interference set, so only Classical carries the monotonicity contract.
type AlphaBeta struct {
	// Policy assigns the intra-task priorities; default
	// LongestPathFirstPolicy.
	Policy PriorityPolicy
}

// Name returns "alpha-beta/<policy>".
func (a AlphaBeta) Name() string { return "alpha-beta/" + a.policy().Name() }

func (a AlphaBeta) policy() PriorityPolicy {
	if a.Policy == nil {
		return LongestPathFirstPolicy{}
	}
	return a.Policy
}

// Analyze bounds the response time with the priority-filtered bound.
func (a AlphaBeta) Analyze(t *Task) Result {
	pathNs, path := t.CriticalPath()
	ranks := a.policy().Assign(t)
	onPath := make([]bool, len(t.Nodes))
	worstPathRank := 0
	for _, u := range path {
		onPath[u] = true
		if ranks[u] > worstPathRank {
			worstPathRank = ranks[u]
		}
	}
	var beta int64
	for u := range t.Nodes {
		if !onPath[u] && ranks[u] <= worstPathRank {
			beta += t.Nodes[u].WCETNs
		}
	}
	return finish(t, a.Name(), pathNs, path, beta)
}
