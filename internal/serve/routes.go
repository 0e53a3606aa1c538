package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"hrtsched/internal/dag"
	"hrtsched/internal/plan"
	"hrtsched/internal/whatif"
)

// ShardGroupHeader attributes a routed response to the shard group(s) that
// answered it: the owning group index for single-item routes, comma-joined
// per-item indexes for batches. A plain cluster never sets it.
const ShardGroupHeader = "X-Hrtd-Shard-Group"

// Backend is what the /v1/cluster/*, /v1/dag/* and /v1/simulate handlers
// answer from: one cluster (HandlerWithCluster) or the shard router
// (route.Router.Handler). The handlers own decoding, validation and every
// response byte; a backend supplies the results, the shard group that
// answered (-1 for none, which omits ShardGroupHeader), and the envelope
// of each failure.
type Backend interface {
	Place(ctx context.Context, id string, set plan.TaskSet) (res PlaceResult, group int, err error)
	// PlaceBatch answers every item in input order; groups is nil or
	// names each item's group.
	PlaceBatch(ctx context.Context, items []BatchPlaceItem) (results []BatchPlaceResult, groups []int)
	Remove(ctx context.Context, id string) (v plan.Verdict, group int, err error)
	Drain(ctx context.Context, node int) (report any, group int, err error)
	Undrain(ctx context.Context, node int) (group int, err error)
	Rebalance(ctx context.Context) (report any, err error)
	// Status answers GET /v1/cluster/status; a backend may set staleness
	// headers on h.
	Status(ctx context.Context, h http.Header) (status any, group int, err error)
	PlaceDAG(ctx context.Context, id string, t dag.Task, analyzer string) (res DAGPlaceResult, group int, err error)
	AnalyzeDAG(ctx context.Context, t dag.Task, analyzer string) (dag.Result, error)
	Simulate(ctx context.Context, req SimulateRequest) (rep *whatif.Report, group int, err error)
	// Envelope maps a failure to its status, envelope and Retry-After
	// seconds (0 = no header).
	Envelope(err error) (status int, e APIError, retryAfterSecs int64)
	// Redirected is called once per 307 the handlers answer.
	Redirected()
}

// Route is one of the /v1 routes Routes serves: its path, the label the
// shard router times it under, and its handler.
type Route struct {
	Path, Name string
	Handler    http.HandlerFunc
}

// Routes returns the ten /v1/cluster/*, /v1/dag/* and /v1/simulate
// routes, answered from b.
func Routes(b Backend) []Route {
	h := handlers{b}
	return []Route{
		{"/v1/cluster/place", "place", h.place},
		{"/v1/cluster/place-batch", "place-batch", h.placeBatch},
		{"/v1/cluster/remove", "remove", h.remove},
		{"/v1/cluster/drain", "drain", h.drain},
		{"/v1/cluster/undrain", "undrain", h.undrain},
		{"/v1/cluster/rebalance", "rebalance", h.rebalance},
		{"/v1/cluster/status", "status", h.status},
		{"/v1/dag/place", "dag-place", h.dagPlace},
		{"/v1/dag/analyze", "dag-analyze", h.dagAnalyze},
		{"/v1/simulate", "simulate", h.simulate},
	}
}

type handlers struct{ b Backend }

// fail answers a backend failure: a structural DAG rejection (only the
// /v1/dag/* routes meet one) as its 422 envelope, a redirectable
// leadership error as the 307 contract, anything else as the backend's
// envelope.
func (h handlers) fail(w http.ResponseWriter, req *http.Request, err error) {
	if writeDAGError(w, err) || h.redirectToLeader(w, req, err) {
		return
	}
	status, e, secs := h.b.Envelope(err)
	WriteAPIError(w, status, e, secs)
}

// redirectToLeader answers a NotLeaderError with a 307 to the same path
// on the leader (307 preserves the method and body, so a client that
// follows it re-issues the identical mutation). Returns false when err is
// anything else, or when no leader URL is known — the backend's envelope
// then answers 503 no_leader.
func (h handlers) redirectToLeader(w http.ResponseWriter, req *http.Request, err error) bool {
	var nl *NotLeaderError
	if !errors.As(err, &nl) || nl.LeaderURL == "" {
		return false
	}
	h.b.Redirected()
	w.Header().Set("Location", strings.TrimSuffix(nl.LeaderURL, "/")+req.URL.Path)
	writeError(w, http.StatusTemporaryRedirect, "not_leader", err.Error(), 0)
	return true
}

// writeDAGError answers a structural DAG rejection: 422 with the uniform
// envelope carrying the typed dag.ErrorCode and, for a precedence cycle,
// the blocking node path. Returns false for any other error.
func writeDAGError(w http.ResponseWriter, err error) bool {
	var verr *dag.ValidationError
	if !errors.As(err, &verr) {
		return false
	}
	writeJSON(w, http.StatusUnprocessableEntity, APIError{
		Code:         "invalid_dag",
		Reason:       verr.Error(),
		DAGCode:      string(verr.Code),
		BlockingPath: verr.Path,
	})
	return true
}

// overBatchCap answers the 400 for a batch of n items over
// DefaultMaxBatchItems and reports whether it did. The body quotes the cap.
func overBatchCap(w http.ResponseWriter, n int) bool {
	if n <= DefaultMaxBatchItems {
		return false
	}
	writeError(w, http.StatusBadRequest, "bad_request",
		fmt.Sprintf("batch of %d items exceeds the %d-item cap", n, DefaultMaxBatchItems), 0)
	return true
}

// setGroup attributes the response to shard group g; -1 attributes none.
func setGroup(w http.ResponseWriter, g int) {
	if g >= 0 {
		w.Header().Set(ShardGroupHeader, strconv.Itoa(g))
	}
}

func (h handlers) place(w http.ResponseWriter, req *http.Request) {
	var body placeRequest
	if !decodeBody(w, req, &body) {
		return
	}
	res, g, err := h.b.Place(req.Context(), body.ID, body.Tasks)
	if err != nil {
		h.fail(w, req, err)
		return
	}
	setGroup(w, g)
	writeAppended(w, res.AppendJSON)
}

// placeBatch places many gangs in one request. The batch always answers
// 200 with one envelope item per input, in input order; each item carries
// either the PlaceResult the single route would have returned or the
// APIError envelope it would have answered with. The one exception is
// leadership: when an item fails with a redirectable NotLeaderError the
// whole batch answers 307 to the leader, so a client that follows it
// re-issues the identical batch there.
func (h handlers) placeBatch(w http.ResponseWriter, req *http.Request) {
	var body placeBatchRequest
	if !decodeBody(w, req, &body) || overBatchCap(w, len(body.Items)) {
		return
	}
	items := make([]BatchPlaceItem, len(body.Items))
	for i, it := range body.Items {
		items[i] = BatchPlaceItem(it)
	}
	results, groups := h.b.PlaceBatch(req.Context(), items)
	out := make([]PlaceBatchEntry, len(results))
	for i, r := range results {
		out[i].ID = r.ID
		if r.Err != nil {
			if h.redirectToLeader(w, req, r.Err) {
				return
			}
			_, e, _ := h.b.Envelope(r.Err)
			out[i].Error = &e
			continue
		}
		res := r.Result
		out[i].Result = &res
	}
	if groups != nil {
		ids := make([]string, len(groups))
		for i, g := range groups {
			ids[i] = strconv.Itoa(g)
		}
		w.Header().Set(ShardGroupHeader, strings.Join(ids, ","))
	}
	WritePlaceBatchReply(w, out)
}

func (h handlers) remove(w http.ResponseWriter, req *http.Request) {
	var body idRequest
	if !decodeBody(w, req, &body) {
		return
	}
	v, g, err := h.b.Remove(req.Context(), body.ID)
	if err != nil {
		h.fail(w, req, err)
		return
	}
	setGroup(w, g)
	writeAppended(w, func(b []byte) []byte { return appendRemoveReply(b, v) })
}

func (h handlers) drain(w http.ResponseWriter, req *http.Request) {
	var body nodeRequest
	if !decodeBody(w, req, &body) {
		return
	}
	// Detached context: a client hangup must not abort a multi-step admin
	// operation (or the router's cross-shard migrations) halfway through.
	rep, g, err := h.b.Drain(context.WithoutCancel(req.Context()), body.Node)
	if err != nil {
		h.fail(w, req, err)
		return
	}
	setGroup(w, g)
	writeJSON(w, http.StatusOK, rep)
}

func (h handlers) undrain(w http.ResponseWriter, req *http.Request) {
	var body nodeRequest
	if !decodeBody(w, req, &body) {
		return
	}
	g, err := h.b.Undrain(req.Context(), body.Node)
	if err != nil {
		h.fail(w, req, err)
		return
	}
	setGroup(w, g)
	writeJSON(w, http.StatusOK, body)
}

func (h handlers) rebalance(w http.ResponseWriter, req *http.Request) {
	var body struct{}
	if !decodeBody(w, req, &body) {
		return
	}
	// Detached for the same reason as drain.
	rep, err := h.b.Rebalance(context.WithoutCancel(req.Context()))
	if err != nil {
		h.fail(w, req, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (h handlers) status(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only", 0)
		return
	}
	st, g, err := h.b.Status(req.Context(), w.Header())
	if err != nil {
		h.fail(w, req, err)
		return
	}
	setGroup(w, g)
	writeJSON(w, http.StatusOK, st)
}

// decodeDAG parses a /v1/dag/* body and rejects an unknown analyzer name
// with 400, answering the envelope and returning false on either.
func decodeDAG(w http.ResponseWriter, req *http.Request, body *dagRequest) bool {
	if !decodeBody(w, req, body) {
		return false
	}
	if _, err := dag.NewAnalyzer(body.Analyzer); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return false
	}
	return true
}

func (h handlers) dagPlace(w http.ResponseWriter, req *http.Request) {
	var body dagRequest
	if !decodeDAG(w, req, &body) {
		return
	}
	res, g, err := h.b.PlaceDAG(req.Context(), body.ID, body.Task, body.Analyzer)
	if err != nil {
		h.fail(w, req, err)
		return
	}
	// Analytical and placement rejections are 200s: the Result carries the
	// typed reason (path-overrun, deadline-miss) and the blocking path.
	setGroup(w, g)
	writeJSON(w, http.StatusOK, res)
}

func (h handlers) dagAnalyze(w http.ResponseWriter, req *http.Request) {
	var body dagRequest
	if !decodeDAG(w, req, &body) {
		return
	}
	res, err := h.b.AnalyzeDAG(req.Context(), body.Task, body.Analyzer)
	if err != nil {
		h.fail(w, req, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// simulate answers POST /v1/simulate. The scenario is normalized and
// validated here, so a malformed one answers 400 before it takes a
// simulation slot or, routed, a network hop; the routed group validates
// the normalized scenario again, which changes nothing.
func (h handlers) simulate(w http.ResponseWriter, req *http.Request) {
	var body SimulateRequest
	if !decodeBody(w, req, &body) {
		return
	}
	body.Scenario = body.Scenario.Normalize()
	if err := body.Scenario.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid_scenario", err.Error(), 0)
		return
	}
	rep, g, err := h.b.Simulate(req.Context(), body)
	if err != nil {
		h.fail(w, req, err)
		return
	}
	setGroup(w, g)
	writeJSON(w, http.StatusOK, rep)
}

// clusterBackend answers the routes from one cluster, and /v1/simulate
// from the server's simulation pool. Nothing is attributed to a shard
// group, and every 307 counts in hrtd_repl_redirects_total.
type clusterBackend struct {
	*Cluster
	s *Server
}

func (b clusterBackend) Place(ctx context.Context, id string, set plan.TaskSet) (PlaceResult, int, error) {
	res, err := b.Cluster.Place(ctx, id, set)
	return res, -1, err
}

func (b clusterBackend) PlaceBatch(ctx context.Context, items []BatchPlaceItem) ([]BatchPlaceResult, []int) {
	return b.Cluster.PlaceBatch(ctx, items), nil
}

func (b clusterBackend) Remove(ctx context.Context, id string) (plan.Verdict, int, error) {
	v, err := b.Cluster.Remove(ctx, id)
	return v, -1, err
}

func (b clusterBackend) Drain(ctx context.Context, node int) (any, int, error) {
	rep, err := b.Cluster.Drain(ctx, node)
	return rep, -1, err
}

func (b clusterBackend) Undrain(_ context.Context, node int) (int, error) {
	return -1, b.Cluster.Undrain(node)
}

func (b clusterBackend) Rebalance(ctx context.Context) (any, error) {
	moved, err := b.Cluster.Rebalance(ctx)
	return map[string]any{"moved": moved}, err
}

// Status is served on every replica — a follower answers its durable view
// (the fold of the committed log prefix it has applied), with staleness
// headers so a client can judge how far behind it may be.
func (b clusterBackend) Status(_ context.Context, h http.Header) (any, int, error) {
	if b.repl != nil {
		st := b.repl.Status()
		h.Set("X-Hrtd-Repl-Role", st.RoleName)
		h.Set("X-Hrtd-Repl-Term", fmt.Sprint(st.Term))
		h.Set("X-Hrtd-Repl-Applied-Lsn", fmt.Sprint(st.AppliedLSN))
		h.Set("X-Hrtd-Repl-Commit-Lsn", fmt.Sprint(st.CommitLSN))
		h.Set("X-Hrtd-Repl-Leader-Contact-Ms", fmt.Sprint(st.MsSinceLeaderContact))
	}
	return b.Cluster.Status(), -1, nil
}

func (b clusterBackend) PlaceDAG(ctx context.Context, id string, t dag.Task, analyzer string) (DAGPlaceResult, int, error) {
	res, err := b.Cluster.PlaceDAG(ctx, id, t, analyzer)
	return res, -1, err
}

func (b clusterBackend) Simulate(ctx context.Context, req SimulateRequest) (*whatif.Report, int, error) {
	rep, err := b.s.Simulate(ctx, req)
	return rep, -1, err
}

func (clusterBackend) Envelope(err error) (int, APIError, int64) { return queryError(err) }

func (b clusterBackend) Redirected() { b.redirects.Add(1) }
