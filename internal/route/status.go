package route

import (
	"context"
	"sort"
	"sync"
	"time"

	"hrtsched/internal/serve"
)

// GroupStatus is one group's row in the routed status report, including
// its staleness: a reachable group answers fresh (age_ms 0); an
// unreachable one serves the router's last cached snapshot with its age,
// or no snapshot at all when none was ever fetched.
type GroupStatus struct {
	Group     int    `json:"group"`
	Name      string `json:"name"`
	Nodes     []int  `json:"nodes"`
	Reachable bool   `json:"reachable"`
	AgeMs     int64  `json:"age_ms"`
	Error     string `json:"error,omitempty"`
	// Status is the group's own report (possibly stale, see AgeMs); absent
	// when the group is unreachable and never answered.
	Status *serve.ClusterStatus `json:"status,omitempty"`
}

// RoutedStatus is the fleet-wide status report: aggregate counters summed
// across groups (stale snapshots standing in for unreachable ones), a
// flattened global node table, and the per-group detail.
type RoutedStatus struct {
	Groups     int                `json:"groups"`
	Reachable  int                `json:"reachable"`
	Nodes      []serve.NodeStatus `json:"nodes"`
	Policy     string             `json:"policy"`
	Placements int                `json:"placements"`
	Placed     int64              `json:"placed_total"`
	Rejected   int64              `json:"rejected_total"`
	Removed    int64              `json:"removed_total"`
	Rebalanced int64              `json:"rebalanced_total"`
	Drained    int64              `json:"drained_total"`
	Canceled   int64              `json:"canceled_total"`
	Unmatched  int64              `json:"unmatched_removals_total"`
	// Migrated counts cross-shard migrations committed by THIS router
	// process (the groups see them as ordinary places and removes).
	Migrated int64         `json:"migrated_total"`
	PerGroup []GroupStatus `json:"per_group"`
}

// Status aggregates every group's status concurrently, each fetch bounded
// by the configured StatusTimeout. Unreachable groups are reported with
// the router's last good snapshot and its age, so the aggregate view
// degrades to staleness — never to absence — while any group is down.
func (r *Router) Status(ctx context.Context) RoutedStatus {
	type fetched struct {
		st  serve.ClusterStatus
		err error
	}
	results := make([]fetched, len(r.groups))
	sem := make(chan struct{}, r.concurrency())
	var wg sync.WaitGroup
	for g := range r.groups {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			fctx, cancel := context.WithTimeout(ctx, r.cfg.StatusTimeout)
			defer cancel()
			start := time.Now()
			st, err := r.groups[g].Status(fctx)
			r.m.observe(g, start, err)
			results[g] = fetched{st: st, err: err}
		}(g)
	}
	wg.Wait()

	now := time.Now()
	out := RoutedStatus{Groups: len(r.groups), Migrated: r.m.migrations.Load()}
	r.statusMu.Lock()
	for g, f := range results {
		if f.err == nil {
			r.lastStatus[g] = cachedStatus{st: f.st, at: now, ok: true}
		}
	}
	cache := append([]cachedStatus(nil), r.lastStatus...)
	r.statusMu.Unlock()

	for g, f := range results {
		gs := GroupStatus{
			Group: g,
			Name:  r.names[g],
			Nodes: append([]int(nil), r.partition[g]...),
		}
		st, have := f.st, f.err == nil
		switch {
		case f.err == nil:
			gs.Reachable = true
			out.Reachable++
		case cache[g].ok:
			gs.Error = f.err.Error()
			gs.AgeMs = now.Sub(cache[g].at).Milliseconds()
			st, have = cache[g].st, true
		default:
			gs.Error = f.err.Error()
		}
		if have {
			cp := st
			gs.Status = &cp
			out.Policy = st.Policy
			out.Placements += st.Placements
			out.Placed += st.Placed
			out.Rejected += st.Rejected
			out.Removed += st.Removed
			out.Rebalanced += st.Rebalanced
			out.Drained += st.Drained
			out.Canceled += st.Canceled
			out.Unmatched += st.Unmatched
			for i, n := range st.Nodes {
				if i < len(r.partition[g]) {
					n.Node = r.partition[g][i]
				}
				out.Nodes = append(out.Nodes, n)
			}
		}
		out.PerGroup = append(out.PerGroup, gs)
	}
	sort.Slice(out.Nodes, func(i, j int) bool { return out.Nodes[i].Node < out.Nodes[j].Node })
	return out
}
