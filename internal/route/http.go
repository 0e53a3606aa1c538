package route

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hrtsched/internal/client"
	"hrtsched/internal/dag"
	"hrtsched/internal/serve"
)

// ShardGroupHeader attributes a routed response to the shard group(s) that
// answered it: the owning group index for single-item routes,
// comma-joined per-item indexes for batches.
const ShardGroupHeader = "X-Hrtd-Shard-Group"

type nodeRequest struct {
	Node int `json:"node"`
}

type dagRequest struct {
	ID       string   `json:"id,omitempty"`
	Task     dag.Task `json:"task"`
	Analyzer string   `json:"analyzer,omitempty"`
}

// MaxBatchItems is the router's own batch cap: the largest cap any group
// advertises (the router splits per group, so one group's cap does not
// bound the routed batch).
func (r *Router) MaxBatchItems() int {
	max := 0
	for _, g := range r.groups {
		if n := g.MaxBatchItems(); n > max {
			max = n
		}
	}
	if max < 1 {
		max = serve.DefaultMaxBatchItems
	}
	return max
}

// Handler returns the router's HTTP mux: the /v1/cluster/* and /v1/dag/*
// routes answer through the shard router (every body and error envelope
// byte-identical to the unrouted single-group contract, plus the
// X-Hrtd-Shard-Group attribution header), and every other path — /v1/
// analyze routes, /metrics, /healthz — falls through to next. Each route
// is timed into the hrtd_route_http_duration_us histogram.
func (r *Router) Handler(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/cluster/place", r.timed("place", r.handlePlace))
	mux.HandleFunc("/v1/cluster/place-batch", r.timed("place-batch", r.handlePlaceBatch))
	mux.HandleFunc("/v1/cluster/remove", r.timed("remove", r.handleRemove))
	mux.HandleFunc("/v1/cluster/drain", r.timed("drain", r.handleDrain))
	mux.HandleFunc("/v1/cluster/undrain", r.timed("undrain", r.handleUndrain))
	mux.HandleFunc("/v1/cluster/rebalance", r.timed("rebalance", r.handleRebalance))
	mux.HandleFunc("/v1/cluster/status", r.timed("status", r.handleStatus))
	mux.HandleFunc("/v1/dag/place", r.timed("dag-place", r.handleDAGPlace))
	mux.HandleFunc("/v1/dag/analyze", r.timed("dag-analyze", r.handleDAGAnalyze))
	mux.HandleFunc("/v1/simulate", r.timed("simulate", r.handleSimulate))
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

// redirectToLeader mirrors the serve layer's whole-request 307 contract
// for a redirectable NotLeaderError surfacing from a group.
func redirectToLeader(w http.ResponseWriter, req *http.Request, err error) bool {
	var nl *serve.NotLeaderError
	if !errors.As(err, &nl) || nl.LeaderURL == "" {
		return false
	}
	w.Header().Set("Location", strings.TrimSuffix(nl.LeaderURL, "/")+req.URL.Path)
	serve.WriteError(w, http.StatusTemporaryRedirect, "not_leader", err.Error(), 0)
	return true
}

// groupError maps a group's failure onto the envelope the router answers
// with: a remote group's envelope passes through verbatim (status, body,
// and Retry-After), an unreachable group becomes 503 unavailable with a
// retry hint, and everything else maps through the standard serve envelope.
func groupError(err error) (status int, e serve.APIError, retryAfterSecs int64) {
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

// writeGroupError answers a group's failure with the group's own contract:
// a redirectable leadership error becomes the 307 contract, anything else
// its groupError envelope.
func writeGroupError(w http.ResponseWriter, req *http.Request, err error) {
	if redirectToLeader(w, req, err) {
		return
	}
	status, e, secs := groupError(err)
	serve.WriteAPIError(w, status, e, secs)
}

func (r *Router) handlePlace(w http.ResponseWriter, req *http.Request) {
	item, ok := serve.DecodePlace(w, req)
	if !ok {
		return
	}
	res, g, err := r.Place(req.Context(), item.ID, item.Tasks)
	if err != nil {
		writeGroupError(w, req, err)
		return
	}
	w.Header().Set(ShardGroupHeader, strconv.Itoa(g))
	serve.WritePlaceResult(w, res)
}

func (r *Router) handlePlaceBatch(w http.ResponseWriter, req *http.Request) {
	items, ok := serve.DecodePlaceBatch(w, req)
	if !ok {
		return
	}
	if cap := r.MaxBatchItems(); len(items) > cap {
		serve.WriteError(w, http.StatusBadRequest, "bad_request",
			batchCapReason(len(items), cap), 0)
		return
	}
	br := r.PlaceBatch(req.Context(), items)
	out := make([]serve.PlaceBatchEntry, len(br.Results))
	groups := make([]string, len(br.Results))
	for i, res := range br.Results {
		out[i].ID = res.ID
		groups[i] = strconv.Itoa(br.Groups[i])
		if res.Err != nil {
			if redirectToLeader(w, req, res.Err) {
				return
			}
			_, e, _ := groupError(res.Err)
			out[i].Error = &e
			continue
		}
		rcopy := res.Result
		out[i].Result = &rcopy
	}
	w.Header().Set(ShardGroupHeader, strings.Join(groups, ","))
	serve.WritePlaceBatchReply(w, out)
}

// batchCapReason formats the over-cap rejection exactly as the serve layer
// does, so routed and unrouted 400 bodies match byte for byte.
func batchCapReason(n, cap int) string {
	return "batch of " + strconv.Itoa(n) + " items exceeds the " + strconv.Itoa(cap) + "-item cap"
}

func (r *Router) handleRemove(w http.ResponseWriter, req *http.Request) {
	id, ok := serve.DecodeRemove(w, req)
	if !ok {
		return
	}
	v, g, err := r.Remove(req.Context(), id)
	if err != nil {
		writeGroupError(w, req, err)
		return
	}
	w.Header().Set(ShardGroupHeader, strconv.Itoa(g))
	serve.WriteRemoveReply(w, v)
}

func (r *Router) handleDrain(w http.ResponseWriter, req *http.Request) {
	var body nodeRequest
	if !serve.DecodeBody(w, req, &body) {
		return
	}
	// Detached context: a client hangup must not abort a multi-step admin
	// operation (or its cross-shard migrations) halfway through.
	rep, err := r.Drain(context.WithoutCancel(req.Context()), body.Node)
	if err != nil {
		writeGroupError(w, req, err)
		return
	}
	if ref, ok := r.globalNodes[body.Node]; ok {
		w.Header().Set(ShardGroupHeader, strconv.Itoa(ref.group))
	}
	serve.WriteJSON(w, http.StatusOK, rep)
}

func (r *Router) handleUndrain(w http.ResponseWriter, req *http.Request) {
	var body nodeRequest
	if !serve.DecodeBody(w, req, &body) {
		return
	}
	g, err := r.Undrain(req.Context(), body.Node)
	if err != nil {
		writeGroupError(w, req, err)
		return
	}
	w.Header().Set(ShardGroupHeader, strconv.Itoa(g))
	serve.WriteJSON(w, http.StatusOK, map[string]any{"node": body.Node})
}

func (r *Router) handleRebalance(w http.ResponseWriter, req *http.Request) {
	var body struct{}
	if !serve.DecodeBody(w, req, &body) {
		return
	}
	rep, err := r.Rebalance(context.WithoutCancel(req.Context()))
	if err != nil {
		writeGroupError(w, req, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, rep)
}

// handleStatus answers the aggregate fleet view. With one group the
// group's own status body passes through byte-identically (the routed
// aggregate adds nothing a single group doesn't already say); with
// several, the RoutedStatus aggregate carries per-group staleness.
func (r *Router) handleStatus(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		serve.WriteError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only", 0)
		return
	}
	if len(r.groups) == 1 {
		st, err := r.groups[0].Status(req.Context())
		if err != nil {
			writeGroupError(w, req, err)
			return
		}
		w.Header().Set(ShardGroupHeader, "0")
		serve.WriteJSON(w, http.StatusOK, st)
		return
	}
	serve.WriteJSON(w, http.StatusOK, r.Status(req.Context()))
}

// handleSimulate forwards a what-if run to a simulation-capable group.
// Validation happens here so malformed scenarios answer 400 without a
// network hop; the serving group re-validates (the normalized scenario is
// forwarded, so the check is idempotent).
func (r *Router) handleSimulate(w http.ResponseWriter, req *http.Request) {
	var body serve.SimulateRequest
	if !serve.DecodeBody(w, req, &body) {
		return
	}
	body.Scenario = body.Scenario.Normalize()
	if err := body.Scenario.Validate(); err != nil {
		serve.WriteError(w, http.StatusBadRequest, "invalid_scenario", err.Error(), 0)
		return
	}
	rep, g, err := r.Simulate(req.Context(), body)
	if err != nil {
		writeGroupError(w, req, err)
		return
	}
	w.Header().Set(ShardGroupHeader, strconv.Itoa(g))
	serve.WriteJSON(w, http.StatusOK, rep)
}

func (r *Router) handleDAGPlace(w http.ResponseWriter, req *http.Request) {
	var body dagRequest
	if !serve.DecodeBody(w, req, &body) {
		return
	}
	if _, err := dag.NewAnalyzer(body.Analyzer); err != nil {
		serve.WriteError(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	res, g, err := r.PlaceDAG(req.Context(), body.ID, body.Task, body.Analyzer)
	if err != nil {
		if !serve.WriteDAGErrorResponse(w, err) {
			writeGroupError(w, req, err)
		}
		return
	}
	w.Header().Set(ShardGroupHeader, strconv.Itoa(g))
	serve.WriteJSON(w, http.StatusOK, res)
}

func (r *Router) handleDAGAnalyze(w http.ResponseWriter, req *http.Request) {
	var body dagRequest
	if !serve.DecodeBody(w, req, &body) {
		return
	}
	if _, err := dag.NewAnalyzer(body.Analyzer); err != nil {
		serve.WriteError(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	res, err := r.AnalyzeDAG(req.Context(), body.Task, body.Analyzer)
	if err != nil {
		if !serve.WriteDAGErrorResponse(w, err) {
			writeGroupError(w, req, err)
		}
		return
	}
	serve.WriteJSON(w, http.StatusOK, res)
}
