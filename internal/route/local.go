package route

import (
	"context"

	"hrtsched/internal/serve"
	"hrtsched/internal/whatif"
)

// LocalGroup adapts an in-process serve.Cluster as a shard group: the
// embedded cluster answers every Group and Migrator method whose
// signature it shares, so local groups fully participate in cross-shard
// drain and rebalance migrations, and what-if runs go to the simulation
// pool of the server that owns the cluster.
type LocalGroup struct {
	*serve.Cluster
	srv *serve.Server
}

// NewLocalGroupWithServer wraps a cluster plus the server that owns it
// (the simulation worker pool lives on the server, not the cluster).
func NewLocalGroupWithServer(c *serve.Cluster, srv *serve.Server) *LocalGroup {
	return &LocalGroup{Cluster: c, srv: srv}
}

// Undrain implements Group.
func (g *LocalGroup) Undrain(_ context.Context, localNode int) error {
	return g.Cluster.Undrain(localNode)
}

// Status implements Group; an in-process snapshot cannot fail.
func (g *LocalGroup) Status(context.Context) (serve.ClusterStatus, error) {
	return g.Cluster.Status(), nil
}

// Simulate implements Group through the owning server's simulation pool.
func (g *LocalGroup) Simulate(ctx context.Context, req serve.SimulateRequest) (*whatif.Report, error) {
	return g.srv.Simulate(ctx, req)
}
