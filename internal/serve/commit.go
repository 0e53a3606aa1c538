package serve

import (
	"hrtsched/internal/durable"
	"hrtsched/internal/plan"
)

// commitLog is the durability step of the cluster's one mutation
// pipeline: a node worker evaluates its batch against the engine, builds a
// durable.Record for every mutation that changed it, and commits the
// records here before any reply goes out; every committed record is then
// folded into the placement map and counters by Cluster.fold.
//
// The logs differ in one property, and it decides who mutates the engine:
// whether a record can still be lost after the worker's evaluation. The
// memory and local-WAL logs cannot lose one (the WAL fails open), so the
// evaluation is the apply and commit folds the records itself. The
// replicated log's commit can fail after evaluation, so the worker reverts
// its evaluation (reapplies) and applyCommitted re-applies and folds each
// record once a majority holds it, in log order on every replica.
// Reverting and re-applying in every mode would be one rule fewer, but it
// raises the memory path's median latency by over a third (DESIGN.md
// §9.2).
type commitLog interface {
	// reapplies reports whether committed records re-apply through the
	// log's own apply loop, so the worker must revert its evaluation.
	reapplies() bool
	// commit makes recs durable and, unless reapplies, folds them. An
	// error means the records were not knowably committed.
	commit(recs []durable.Record) error
	// stats reports the durable store's health; false for the memory log.
	stats() (durable.Stats, bool)
	// close releases the log once the workers have stopped.
	close()
}

// memLog commits nothing: the in-memory cluster's records only fold.
type memLog struct{ c *Cluster }

func (memLog) reapplies() bool { return false }

func (l memLog) commit(recs []durable.Record) error {
	l.c.fold(recs...)
	return nil
}

func (memLog) stats() (durable.Stats, bool) { return durable.Stats{}, false }
func (memLog) close()                       {}

// walLog group-commits records to the local write-ahead log.
type walLog struct {
	c     *Cluster
	store *durable.Store
}

func (walLog) reapplies() bool { return false }

// commit shares one fsync with every other node's batch in flight. A WAL
// failure latches the store degraded and the commit still succeeds: the
// engine already applied the records, so fail-open (keep serving, stop
// claiming durability) is the only answer that doesn't lie in one
// direction or the other.
func (l walLog) commit(recs []durable.Record) error {
	l.store.LogBatch(recs) //nolint:errcheck // fail-open: the store latches degraded
	l.c.fold(recs...)
	return nil
}

func (l walLog) stats() (durable.Stats, bool) { return l.store.Stats(), true }

// close cuts the final snapshot; errors latch into the store's degraded
// stats, and the WAL alone still carries the state.
func (l walLog) close() { l.store.Close() } //nolint:errcheck

// applyBatch is a node worker's batch step, the same in every mode:
// evaluate each mutation against the engine, build a record for every one
// that changed it, commit the records, and only then reply — a client
// never hears "placed" (or "removed") before the log holds the record
// that proves it. A mutation whose context was canceled while queued is
// dropped unevaluated and answered at once: it commits nothing.
func (c *Cluster) applyBatch(n *node, batch []*mutation) {
	start := n.svc.begin(len(batch) + len(n.ch))
	results := make([]mutResult, len(batch))
	recs := n.recs[:0]
	n.engMu.Lock()
	for i, m := range batch {
		if m.ctx != nil && m.ctx.Err() != nil {
			n.canceled.Add(1)
			c.canceled.Add(1)
			results[i].canceled = true
			m.done <- results[i]
			continue
		}
		r := &results[i]
		switch m.op {
		case placeOp:
			r.verdict, r.matched = n.eng.TryGang(m.set), true
		case removeOp:
			r.verdict, r.matched = n.eng.RemoveGang(m.set)
		case evalOp:
			// What-if probe: no engine change, no record.
			r.verdict, r.matched = n.eng.EvaluateGang(m.set), true
		}
		if m.changed(r) {
			recs = append(recs, m.record(n.id))
		}
	}
	if c.log.reapplies() {
		// Each admitted entry stayed in the engine while the later ones
		// were judged, so the batch was evaluated exactly as the apply
		// loop will replay it (a boundary-fitting set can't be acked here
		// and refused there). Revert it all, in reverse.
		for i := len(recs) - 1; i >= 0; i-- {
			if recs[i].Kind == durable.KindRemove {
				n.eng.TryGang(recs[i].Tasks)
			} else {
				n.eng.RemoveGang(recs[i].Tasks)
			}
		}
	}
	n.syncGauges()
	n.engMu.Unlock()
	if len(recs) > 0 {
		if err := c.log.commit(recs); err != nil {
			for i, m := range batch {
				if m.changed(&results[i]) {
					results[i] = mutResult{err: err}
				}
			}
		}
	}
	clear(recs) // no log keeps them; drop the task references
	n.recs = recs[:0]
	for i, m := range batch {
		if !results[i].canceled {
			m.done <- results[i]
		}
	}
	n.svc.end(start, len(batch))
}

// changed reports whether m, answered r, changed the engine — whether it
// has a record to commit.
func (m *mutation) changed(r *mutResult) bool {
	return m.op == placeOp && r.verdict.Admit || m.op == removeOp && r.matched
}

// record is the log record of m applied on node. A remove carries its set
// too, for the worker's revert; the encoding leaves it out.
func (m *mutation) record(node int) durable.Record {
	rec := durable.Record{Kind: durable.KindRemove, Origin: m.origin, Node: node, ID: m.id, Tasks: m.set}
	if m.op == placeOp {
		rec.Kind = durable.KindPlace
		if m.dag != nil {
			rec.Kind, rec.DAG = durable.KindPlaceDAG, m.dag
		}
	}
	return rec
}

// fold takes committed records into the placement map and the counters,
// in commit order — the one place either learns of a commit, in every
// mode. A place updates an in-flight entry in place, so its caller's
// pending marker (and pointer) stay valid, and marks it committed; a
// remove mirrors the shadow's release rule: a release drops a moved set's
// stale copy, so the map keeps an id that already points at its new home.
// Counters follow the record origin, exactly as durable.State rebuilds
// them at recovery.
func (c *Cluster) fold(recs ...durable.Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, rec := range recs {
		c.nodes[rec.Node].applied.Add(1)
		if rec.Kind == durable.KindRemove {
			if old, ok := c.placements[rec.ID]; ok && old.node == rec.Node {
				delete(c.placements, rec.ID)
			}
			if rec.Origin == durable.OriginClient {
				c.removed.Add(1)
			}
			continue
		}
		old, ok := c.placements[rec.ID]
		if !ok || !old.pending {
			old = &placementRec{}
			c.placements[rec.ID] = old
		}
		old.node, old.set, old.util, old.dag, old.committed = rec.Node, rec.Tasks, rec.Tasks.Utilization(), rec.DAG, true
		switch rec.Origin {
		case durable.OriginClient:
			c.placed.Add(1)
			if rec.Kind == durable.KindPlaceDAG {
				c.dagPlaced.Add(1)
			}
		case durable.OriginDrain:
			c.drained.Add(1)
		case durable.OriginRebalance:
			c.rebalanced.Add(1)
		}
	}
}

// applyRecord applies one recovered or replicated record to an engine,
// reporting whether the engine took it. A DAG record applies its stored
// server task; the response-time analysis is never re-run.
func applyRecord(eng *plan.Incremental, rec durable.Record) bool {
	switch rec.Kind {
	case durable.KindPlace, durable.KindPlaceDAG:
		return eng.TryGang(rec.Tasks).Admit
	case durable.KindRemove:
		_, ok := eng.RemoveGang(rec.Tasks)
		return ok
	}
	return false
}

// install adopts a recovered shadow state at boot, before any worker
// runs, the same for both durable logs: the engines restore its sets,
// catchUp (when non-nil) replays the log suffix through them, and the
// placement map, counters and gauges are installed from the state as
// catchUp left it.
func (c *Cluster) install(st *durable.State, catchUp func() error) error {
	for i, n := range c.nodes {
		var tasks plan.TaskSet
		for _, e := range st.Nodes[i] {
			tasks = append(tasks, e.Tasks...)
		}
		if len(tasks) > 0 {
			n.eng.Restore(tasks)
		}
	}
	if catchUp != nil {
		if err := catchUp(); err != nil {
			return err
		}
	}
	for id, nodeID := range st.Placements {
		for _, e := range st.Nodes[nodeID] {
			if e.ID == id {
				c.placements[id] = &placementRec{
					node: nodeID,
					set:  e.Tasks,
					util: e.Tasks.Utilization(),
					dag:  e.DAG,
				}
				break
			}
		}
	}
	c.placed.Store(st.Counters.Placed)
	c.removed.Store(st.Counters.Removed)
	c.drained.Store(st.Counters.Drained)
	c.rebalanced.Store(st.Counters.Rebalanced)
	c.dagPlaced.Store(st.Counters.DAGPlaced)
	for _, n := range c.nodes {
		n.syncGauges()
	}
	return nil
}
