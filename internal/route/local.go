package route

import (
	"context"

	"hrtsched/internal/serve"
	"hrtsched/internal/whatif"
)

// LocalGroup adapts an in-process serve.Cluster as a shard group: the
// embedded cluster answers every Group and Migrator method whose
// signature it shares, so local groups fully participate in cross-shard
// drain and rebalance migrations. When constructed with
// NewLocalGroupWithServer it also implements Simulator, delegating
// what-if runs to the owning server's simulation pool.
type LocalGroup struct {
	*serve.Cluster
	srv *serve.Server
}

// NewLocalGroup wraps a cluster.
func NewLocalGroup(c *serve.Cluster) *LocalGroup { return &LocalGroup{Cluster: c} }

// NewLocalGroupWithServer wraps a cluster plus the server that owns it,
// enabling the Simulator capability (the simulation worker pool lives on
// the server, not the cluster).
func NewLocalGroupWithServer(c *serve.Cluster, srv *serve.Server) *LocalGroup {
	return &LocalGroup{Cluster: c, srv: srv}
}

// MaxBatchItems implements Group.
func (g *LocalGroup) MaxBatchItems() int { return g.Config().MaxBatchItems }

// Undrain implements Group.
func (g *LocalGroup) Undrain(_ context.Context, localNode int) error {
	return g.Cluster.Undrain(localNode)
}

// Status implements Group; an in-process snapshot cannot fail.
func (g *LocalGroup) Status(context.Context) (serve.ClusterStatus, error) {
	return g.Cluster.Status(), nil
}

// Simulate implements Simulator when the group was constructed with
// NewLocalGroupWithServer; otherwise the router falls through to the next
// capable group.
func (g *LocalGroup) Simulate(ctx context.Context, req serve.SimulateRequest) (*whatif.Report, error) {
	if g.srv == nil {
		return nil, errSimUnsupported
	}
	return g.srv.Simulate(ctx, req)
}
