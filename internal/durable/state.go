package durable

import "hrtsched/internal/plan"

// Entry is one placed set on one node, in admission order. DAG is set
// only for placements committed by a KindPlaceDAG record; it is omitted
// from snapshots otherwise, so snapshots of DAG-free sessions stay
// byte-identical to previous releases.
type Entry struct {
	ID    string       `json:"id"`
	Tasks plan.TaskSet `json:"tasks"`
	DAG   *DAGMeta     `json:"dag,omitempty"`
}

// Counters are the durable per-operation totals, rebuilt from record
// origins. Rejections, cancellations, and unmatched removals are
// deliberately absent: they commit nothing, so nothing is logged.
type Counters struct {
	Placed     int64 `json:"placed"`
	Removed    int64 `json:"removed"`
	Drained    int64 `json:"drained"`
	Rebalanced int64 `json:"rebalanced"`
	// DAGPlaced counts the KindPlaceDAG subset of Placed. omitempty keeps
	// snapshots of DAG-free sessions byte-identical to previous releases.
	DAGPlaced int64 `json:"dag_placed,omitempty"`
}

// State is the shadow replica of the cluster's placement tables. It
// advances only by Apply in log order, which makes a snapshot of it
// consistent by construction — no coordination with the live engines is
// ever needed to take one.
//
// During a move there is a window where the set's entry exists on both
// the destination and the old home while Placements points at the
// destination; the release record closes it. A crash inside the window
// leaves an orphan (an entry whose node disagrees with Placements), which
// recovery reconciles explicitly.
type State struct {
	// Nodes holds each node's entries in admission order.
	Nodes [][]Entry `json:"nodes"`
	// Placements maps each id to its authoritative node.
	Placements map[string]int `json:"placements"`
	Counters   Counters       `json:"counters"`
}

// NewState returns an empty shadow for nodes placement nodes.
func NewState(nodes int) *State {
	return &State{
		Nodes:      make([][]Entry, nodes),
		Placements: map[string]int{},
	}
}

// Clone returns an independent deep copy (the snapshot cut point).
func (st *State) Clone() *State {
	c := &State{
		Nodes:      make([][]Entry, len(st.Nodes)),
		Placements: make(map[string]int, len(st.Placements)),
		Counters:   st.Counters,
	}
	for i, list := range st.Nodes {
		c.Nodes[i] = append([]Entry(nil), list...)
	}
	for id, n := range st.Placements {
		c.Placements[id] = n
	}
	return c
}

// Peek reports whether r can apply to the current state: the node exists,
// a place's id is not already on that node, a remove's id is. A false
// Peek during replay means the record does not fit the state the log
// itself built — it is counted and skipped, never force-applied.
func (st *State) Peek(r Record) bool {
	if r.Node < 0 || r.Node >= len(st.Nodes) {
		return false
	}
	onNode := st.entryIndex(r)
	switch r.Kind {
	case KindPlace, KindPlaceDAG:
		return CheckPlacement(r.ID, r.Node, r.Tasks) == nil && onNode < 0
	case KindRemove:
		return onNode >= 0
	}
	return false
}

// Resolve returns the task set r operates on: the record's own tasks for
// a place, the stored entry's tasks for a remove (nil when Peek fails).
func (st *State) Resolve(r Record) plan.TaskSet {
	if r.Kind == KindPlace || r.Kind == KindPlaceDAG {
		return r.Tasks
	}
	if r.Node < 0 || r.Node >= len(st.Nodes) {
		return nil
	}
	if i := st.entryIndex(r); i >= 0 {
		return st.Nodes[r.Node][i].Tasks
	}
	return nil
}

// Apply advances the state by one record (Peek must hold) and returns the
// affected task set.
func (st *State) Apply(r Record) plan.TaskSet {
	switch r.Kind {
	case KindPlace, KindPlaceDAG:
		tasks := append(plan.TaskSet(nil), r.Tasks...)
		st.Nodes[r.Node] = append(st.Nodes[r.Node], Entry{ID: r.ID, Tasks: tasks, DAG: r.DAG})
		st.Placements[r.ID] = r.Node
		switch r.Origin {
		case OriginClient:
			st.Counters.Placed++
			if r.Kind == KindPlaceDAG {
				st.Counters.DAGPlaced++
			}
		case OriginDrain:
			st.Counters.Drained++
		case OriginRebalance:
			st.Counters.Rebalanced++
		}
		return tasks
	case KindRemove:
		i := st.entryIndex(r)
		if i < 0 {
			return nil
		}
		list := st.Nodes[r.Node]
		tasks := list[i].Tasks
		st.Nodes[r.Node] = append(list[:i], list[i+1:]...)
		// A release removes the stale copy of a moved set; the id still
		// points at its new home, so the map keeps it.
		if st.Placements[r.ID] == r.Node {
			delete(st.Placements, r.ID)
		}
		if r.Origin == OriginClient {
			st.Counters.Removed++
		}
		return tasks
	}
	return nil
}

// Orphan is an entry stranded by a crash inside a move's dual-reservation
// window: its node no longer matches Placements, so it is a stale copy
// the release record never reached the log for.
type Orphan struct {
	Node  int
	ID    string
	Tasks plan.TaskSet
}

// Orphans lists every stale entry, in (node, admission) order — the
// deterministic order recovery releases them in.
func (st *State) Orphans() []Orphan {
	var out []Orphan
	for nodeID, list := range st.Nodes {
		for _, e := range list {
			if home, ok := st.Placements[e.ID]; !ok || home != nodeID {
				out = append(out, Orphan{Node: nodeID, ID: e.ID, Tasks: e.Tasks})
			}
		}
	}
	return out
}

// installable reports whether the cluster can install the state as it
// stands: every placement names one of its own nodes and every entry
// task is one plan.Analyze would not refuse as bad-task.
func (st *State) installable() bool {
	for _, node := range st.Placements {
		if node < 0 || node >= len(st.Nodes) {
			return false
		}
	}
	for _, list := range st.Nodes {
		for _, e := range list {
			for _, t := range e.Tasks {
				if !t.Valid() {
					return false
				}
			}
		}
	}
	return true
}

func (st *State) entryIndex(r Record) int {
	for i, e := range st.Nodes[r.Node] {
		if e.ID == r.ID {
			return i
		}
	}
	return -1
}
