package route

import (
	"context"
	"fmt"
	"time"

	"hrtsched/internal/client"
	"hrtsched/internal/dag"
	"hrtsched/internal/plan"
	"hrtsched/internal/serve"
	"hrtsched/internal/whatif"
)

// RemoteGroup speaks the /v1/ HTTP contract to a shard-group daemon through
// internal/client, which follows 307 leader redirects (so a replicated
// group's follower URL works as the group address), maps a non-2xx reply
// to a client.EnvelopeError that the router re-emits verbatim (a group
// with no electable leader passes its 503 no_leader through), and maps a
// transport failure to client.ErrUnreachable. RemoteGroup never retries.
// It does not implement Migrator: cross-shard migrations need the
// evaluate-only probe surface, which stays in-process.
type RemoteGroup struct {
	c     *client.Client
	nodes int
}

// NewRemoteGroup probes the group daemon's status to learn its node count
// and returns the adapter. The timeout bounds every request to the group,
// including this probe.
func NewRemoteGroup(ctx context.Context, baseURL string, timeout time.Duration) (*RemoteGroup, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	g := &RemoteGroup{c: client.New(baseURL, timeout, 0)}
	st, err := g.Status(ctx)
	if err != nil {
		return nil, fmt.Errorf("route: probing group %s: %w", baseURL, err)
	}
	g.nodes = len(st.Nodes)
	if g.nodes == 0 {
		return nil, fmt.Errorf("route: group %s reports no nodes", baseURL)
	}
	return g, nil
}

// NodeCount implements Group.
func (g *RemoteGroup) NodeCount() int { return g.nodes }

// idRequest, nodeRequest and dagRequest are the request bodies of
// /v1/cluster/remove, /v1/cluster/drain and /undrain, and /v1/dag/*.
type idRequest struct {
	ID string `json:"id"`
}

type nodeRequest struct {
	Node int `json:"node"`
}

type dagRequest struct {
	ID       string   `json:"id,omitempty"`
	Task     dag.Task `json:"task"`
	Analyzer string   `json:"analyzer,omitempty"`
}

// Place implements Group.
func (g *RemoteGroup) Place(ctx context.Context, id string, set plan.TaskSet) (serve.PlaceResult, error) {
	var res serve.PlaceResult
	err := g.c.Post(ctx, "/v1/cluster/place", serve.BatchPlaceItem{ID: id, Tasks: set}, &res)
	return res, err
}

// PlaceBatch implements Group. A transport failure fails every item with
// the same unreachable error; protocol failures come back per item as
// client.EnvelopeErrors, exactly as the group embedded them.
func (g *RemoteGroup) PlaceBatch(ctx context.Context, items []serve.BatchPlaceItem) []serve.BatchPlaceResult {
	out := make([]serve.BatchPlaceResult, len(items))
	for i, it := range items {
		out[i] = serve.BatchPlaceResult{ID: it.ID, Result: serve.PlaceResult{Node: -1}}
	}
	req := struct {
		Items []serve.BatchPlaceItem `json:"items"`
	}{items}
	var resp struct {
		Items []serve.PlaceBatchEntry `json:"items"`
	}
	if err := g.c.Post(ctx, "/v1/cluster/place-batch", req, &resp); err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	for i := range out {
		if i >= len(resp.Items) {
			out[i].Err = fmt.Errorf("%w: group answered %d items for %d",
				client.ErrUnreachable, len(resp.Items), len(items))
			continue
		}
		it := resp.Items[i]
		switch {
		case it.Error != nil:
			out[i].Err = client.ItemError(*it.Error)
		case it.Result != nil:
			out[i].Result = *it.Result
		}
	}
	return out
}

// PlaceDAG implements Group.
func (g *RemoteGroup) PlaceDAG(ctx context.Context, id string, t dag.Task, analyzer string) (serve.DAGPlaceResult, error) {
	var res serve.DAGPlaceResult
	err := g.c.Post(ctx, "/v1/dag/place", dagRequest{ID: id, Task: t, Analyzer: analyzer}, &res)
	return res, err
}

// AnalyzeDAG implements Group.
func (g *RemoteGroup) AnalyzeDAG(ctx context.Context, t dag.Task, analyzer string) (dag.Result, error) {
	var res dag.Result
	err := g.c.Post(ctx, "/v1/dag/analyze", dagRequest{Task: t, Analyzer: analyzer}, &res)
	return res, err
}

// Simulate implements Group: every remote group daemon serves
// /v1/simulate, so the router can always forward what-if runs here.
func (g *RemoteGroup) Simulate(ctx context.Context, req serve.SimulateRequest) (*whatif.Report, error) {
	var rep whatif.Report
	if err := g.c.Post(ctx, "/v1/simulate", req, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Remove implements Group.
func (g *RemoteGroup) Remove(ctx context.Context, id string) (plan.Verdict, error) {
	var resp struct {
		Verdict plan.Verdict `json:"verdict"`
	}
	err := g.c.Post(ctx, "/v1/cluster/remove", idRequest{ID: id}, &resp)
	return resp.Verdict, err
}

// Drain implements Group.
func (g *RemoteGroup) Drain(ctx context.Context, localNode int) (serve.DrainReport, error) {
	var rep serve.DrainReport
	err := g.c.Post(ctx, "/v1/cluster/drain", nodeRequest{Node: localNode}, &rep)
	return rep, err
}

// Undrain implements Group.
func (g *RemoteGroup) Undrain(ctx context.Context, localNode int) error {
	return g.c.Post(ctx, "/v1/cluster/undrain", nodeRequest{Node: localNode}, nil)
}

// Rebalance implements Group.
func (g *RemoteGroup) Rebalance(ctx context.Context) (int, error) {
	var resp struct {
		Moved int `json:"moved"`
	}
	err := g.c.Post(ctx, "/v1/cluster/rebalance", struct{}{}, &resp)
	return resp.Moved, err
}

// Status implements Group.
func (g *RemoteGroup) Status(ctx context.Context) (serve.ClusterStatus, error) {
	var st serve.ClusterStatus
	err := g.c.Get(ctx, "/v1/cluster/status", &st)
	return st, err
}
