package route

import (
	"context"
	"errors"
	"net/http"
	"time"

	"hrtsched/internal/client"
	"hrtsched/internal/serve"
)

// Handler returns the router's HTTP mux: the /v1/cluster/*, /v1/dag/* and
// /v1/simulate routes are serve's own handlers (serve.Routes) answering
// through the shard router — every body and error envelope the unrouted
// single-group contract, plus the serve.ShardGroupHeader attribution —
// and every other path (/v1/analyze routes, /metrics, /healthz) falls
// through to next. Each route is timed into the
// hrtd_route_http_duration_us histogram.
func (r *Router) Handler(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	for _, rt := range serve.Routes(backend{r}) {
		mux.HandleFunc(rt.Path, r.timed(rt.Name, rt.Handler))
	}
	if next != nil {
		mux.Handle("/", next)
	}
	return mux
}

func (r *Router) timed(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		h(w, req)
		r.m.observeRoute(name, time.Since(start))
	}
}

// backend is the router's side of serve.Backend. Place, Remove, Undrain,
// PlaceDAG, AnalyzeDAG and Simulate are the Router's own.
type backend struct{ *Router }

func (b backend) PlaceBatch(ctx context.Context, items []serve.BatchPlaceItem) ([]serve.BatchPlaceResult, []int) {
	br := b.Router.PlaceBatch(ctx, items)
	return br.Results, br.Groups
}

func (b backend) Drain(ctx context.Context, node int) (any, int, error) {
	rep, err := b.Router.Drain(ctx, node)
	return rep, b.globalNodes[node].group, err
}

func (b backend) Rebalance(ctx context.Context) (any, error) { return b.Router.Rebalance(ctx) }

// Status passes one group's own status body through unchanged (the
// aggregate would add nothing a single group doesn't already say); over
// several groups it answers the RoutedStatus aggregate, which carries
// per-group staleness.
func (b backend) Status(ctx context.Context, _ http.Header) (any, int, error) {
	if len(b.groups) == 1 {
		st, err := b.groups[0].Status(ctx)
		return st, 0, err
	}
	return b.Router.Status(ctx), -1, nil
}

// Envelope maps a group's failure onto the envelope the router answers
// with: a remote group's envelope passes through verbatim (status, body,
// and Retry-After), an unreachable group becomes 503 unavailable with a
// retry hint, and everything else maps through the cluster's envelope.
func (backend) Envelope(err error) (int, serve.APIError, int64) {
	var env *client.EnvelopeError
	switch {
	case errors.As(err, &env):
		return env.Status, env.Envelope, env.RetryAfterSecs
	case errors.Is(err, client.ErrUnreachable):
		return http.StatusServiceUnavailable,
			serve.APIError{Code: "unavailable", Reason: err.Error(), RetryAfterMs: 1000}, 1
	}
	return serve.QueryError(err)
}

// Redirected counts nothing: hrtd_repl_redirects_total counts the 307s a
// cluster answers through its own handler, not those the router relays.
func (backend) Redirected() {}
