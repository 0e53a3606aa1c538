package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"hrtsched/internal/core"
	"hrtsched/internal/dag"
	"hrtsched/internal/durable"
	"hrtsched/internal/plan"
	"hrtsched/internal/repl"
)

// analyzeRequest is the wire form of POST /v1/analyze and /v1/capacity.
// Task fields reuse plan.Task's JSON tags (period_ns, slice_ns).
type analyzeRequest struct {
	Tasks         plan.TaskSet `json:"tasks"`
	ProbePeriodNs int64        `json:"probe_period_ns,omitempty"` // capacity only
}

// placeRequest is the wire form of POST /v1/cluster/place.
type placeRequest struct {
	ID    string       `json:"id"`
	Tasks plan.TaskSet `json:"tasks"`
}

// analyzeBatchRequest is the wire form of POST /v1/analyze-batch: many
// analyzeRequest items answered in one round trip.
type analyzeBatchRequest struct {
	Items []analyzeRequest `json:"items"`
}

// placeBatchRequest is the wire form of POST /v1/cluster/place-batch.
type placeBatchRequest struct {
	Items []placeRequest `json:"items"`
}

// PlaceBatchEntry is one entry of the /v1/cluster/place-batch response
// envelope: exactly one of Result or Error is set. Result is
// byte-identical to the single-item /v1/cluster/place body for the same
// request; Error is the same APIError envelope the single route would
// answer with.
type PlaceBatchEntry struct {
	ID     string       `json:"id"`
	Result *PlaceResult `json:"result,omitempty"`
	Error  *APIError    `json:"error,omitempty"`
}

// DefaultMaxBatchItems is the default cap on the item count of one batch
// request; larger batches answer 400 so a client cannot queue unbounded
// work behind one POST. The effective cap is Config.MaxBatchItems /
// ClusterConfig.MaxBatchItems and is quoted in the 400 body, so a router
// sizing sub-batches can discover it from the error envelope.
const DefaultMaxBatchItems = 1024

// idRequest is the wire form of POST /v1/cluster/remove.
type idRequest struct {
	ID string `json:"id"`
}

// nodeRequest is the wire form of POST /v1/cluster/drain and /undrain.
type nodeRequest struct {
	Node int `json:"node"`
}

// dagRequest is the wire form of POST /v1/dag/place and /v1/dag/analyze
// (which ignores ID). Analyzer defaults to "classical"; see
// dag.AnalyzerNames for the accepted values.
type dagRequest struct {
	ID       string   `json:"id,omitempty"`
	Task     dag.Task `json:"task"`
	Analyzer string   `json:"analyzer,omitempty"`
}

// APIError is the one JSON error envelope every v1 route answers with:
//
//	{"code":"overloaded","reason":"shard 3 queue full (1024 deep)","retry_after_ms":1}
//
// Code is the machine-readable class (bad_request, method_not_allowed,
// overloaded, conflict, not_found, canceled, unavailable, internal);
// Reason is the human detail; RetryAfterMs is set only on overload sheds
// and mirrors the Retry-After header.
type APIError struct {
	Code         string `json:"code"`
	Reason       string `json:"reason"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
	// DAGCode and BlockingPath carry the typed detail of a /v1/dag/*
	// structural rejection (dag.ErrorCode tag; the offending node path for
	// a precedence cycle). omitempty keeps every other route's envelope
	// byte-identical to previous releases.
	DAGCode      string `json:"dag_code,omitempty"`
	BlockingPath []int  `json:"blocking_path,omitempty"`
}

// statusClientClosedRequest is nginx's conventional status for a request
// whose client canceled; net/http has no named constant for it.
const statusClientClosedRequest = 499

// Handler returns the daemon's HTTP mux without cluster routes; it is
// HandlerWithCluster(nil). See HandlerWithCluster for the route table.
func (s *Server) Handler() http.Handler { return s.HandlerWithCluster(nil) }

// HandlerWithCluster returns the daemon's HTTP mux:
//
//	POST /v1/analyze       {"tasks":[{"period_ns":...,"slice_ns":...}]} -> plan.Verdict
//	POST /v1/analyze-batch {"items":[{"tasks":[...]},...]}         -> {"items":[plan.Verdict,...]}
//	POST /v1/capacity  {"tasks":[...],"probe_period_ns":N}          -> plan.CapacityReport
//	POST /v1/cluster/place     {"id":"...","tasks":[...]}           -> PlaceResult
//	POST /v1/cluster/place-batch {"items":[{"id":...,"tasks":[...]},...]} -> {"items":[{id,result|error},...]}
//	POST /v1/cluster/remove    {"id":"..."}                         -> {"verdict":plan.Verdict}
//	POST /v1/cluster/drain     {"node":N}                           -> DrainReport
//	POST /v1/cluster/undrain   {"node":N}                           -> {"node":N}
//	POST /v1/cluster/rebalance {}                                   -> {"moved":N}
//	GET  /v1/cluster/status                                         -> ClusterStatus
//	POST /v1/dag/place   {"id":"...","task":{...},"analyzer":"..."} -> DAGPlaceResult
//	POST /v1/dag/analyze {"task":{...},"analyzer":"..."}            -> dag.Result
//	POST /v1/simulate  {"scenario":{...},"seed":N}                  -> whatif.Report
//	GET  /metrics                                                    Prometheus text
//	GET  /healthz                                                    liveness JSON
//
// The cluster routes are registered only when c is non-nil; without a
// cluster they answer 404 with the standard envelope. Every v1 error is
// the APIError envelope; overload sheds answer 429 with a Retry-After
// header whose value (in whole seconds, rounded up) mirrors the body's
// retry_after_ms. Cached and uncached analyze answers are byte-identical:
// the cache indicator travels in the X-Hrtd-Cache header, never the body.
// Any other path, the pre-v1 /analyze and /capacity included, answers 404
// with the not_found envelope.
func (s *Server) HandlerWithCluster(c *Cluster) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	mux.HandleFunc("/v1/analyze-batch", s.handleAnalyzeBatch)
	mux.HandleFunc("/v1/capacity", s.handleCapacity)
	mux.HandleFunc("/v1/simulate", s.handleSimulate)
	if c != nil {
		mux.HandleFunc("/v1/cluster/place", c.handlePlace)
		mux.HandleFunc("/v1/cluster/place-batch", c.handlePlaceBatch)
		mux.HandleFunc("/v1/cluster/remove", c.handleRemove)
		mux.HandleFunc("/v1/cluster/drain", c.handleDrain)
		mux.HandleFunc("/v1/cluster/undrain", c.handleUndrain)
		mux.HandleFunc("/v1/cluster/rebalance", c.handleRebalance)
		mux.HandleFunc("/v1/cluster/status", c.handleStatus)
		mux.HandleFunc("/v1/dag/place", c.handleDAGPlace)
		mux.HandleFunc("/v1/dag/analyze", c.handleDAGAnalyze)
		if c.repl != nil {
			// Peer-to-peer consensus RPCs (append, vote, timeout-now).
			h := repl.Handler(c.repl)
			mux.Handle(repl.PathAppend, h)
			mux.Handle(repl.PathVote, h)
			mux.Handle(repl.PathTimeoutNow, h)
		}
	}
	mux.Handle("/metrics", s.reg.Handler())
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		writeError(w, http.StatusNotFound, "not_found", "no such route: "+req.URL.Path, 0)
	})
	return mux
}

func (s *Server) handleAnalyze(w http.ResponseWriter, req *http.Request) {
	var body analyzeRequest
	if !decodeQuery(w, req, &body) {
		return
	}
	v, cached, err := s.AnalyzeContext(req.Context(), body.Tasks)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	if cached {
		w.Header()["X-Hrtd-Cache"] = cacheHit
	} else {
		w.Header()["X-Hrtd-Cache"] = cacheMiss
	}
	writeAppended(w, v.AppendJSON)
}

// handleAnalyzeBatch answers many analyze items in one envelope. Each
// item's verdict is byte-identical to the single-route answer for the
// same task set; the per-item cache bits travel as a comma-joined
// X-Hrtd-Cache header ("hit,miss,..."). The batch is all-or-nothing on
// error, matching AnalyzeBatchContext's contract.
func (s *Server) handleAnalyzeBatch(w http.ResponseWriter, req *http.Request) {
	var body analyzeBatchRequest
	if !decodeBody(w, req, &body) {
		return
	}
	if len(body.Items) > s.cfg.MaxBatchItems {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("batch of %d items exceeds the %d-item cap", len(body.Items), s.cfg.MaxBatchItems), 0)
		return
	}
	sets := make([]plan.TaskSet, len(body.Items))
	for i, it := range body.Items {
		sets[i] = it.Tasks
	}
	verdicts, cached, err := s.AnalyzeBatchContext(req.Context(), sets)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	bits := make([]string, len(cached))
	for i, hit := range cached {
		if hit {
			bits[i] = "hit"
		} else {
			bits[i] = "miss"
		}
	}
	w.Header().Set("X-Hrtd-Cache", strings.Join(bits, ","))
	writeAppended(w, func(b []byte) []byte { return appendAnalyzeBatchReply(b, verdicts) })
}

func (s *Server) handleCapacity(w http.ResponseWriter, req *http.Request) {
	var body analyzeRequest
	if !decodeQuery(w, req, &body) {
		return
	}
	rep, err := s.CapacityContext(req.Context(), body.Tasks, body.ProbePeriodNs)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// redirectToLeader answers a NotLeaderError with a 307 to the same path
// on the leader (307 preserves the method and body, so a client that
// follows it re-issues the identical mutation). Returns false when err is
// anything else, or when no leader URL is known — the caller falls back
// to writeQueryError's 503.
func (c *Cluster) redirectToLeader(w http.ResponseWriter, req *http.Request, err error) bool {
	var nl *NotLeaderError
	if !errors.As(err, &nl) || nl.LeaderURL == "" {
		return false
	}
	c.redirects.Add(1)
	w.Header().Set("Location", strings.TrimSuffix(nl.LeaderURL, "/")+req.URL.Path)
	writeError(w, http.StatusTemporaryRedirect, "not_leader", err.Error(), 0)
	return true
}

func (c *Cluster) handlePlace(w http.ResponseWriter, req *http.Request) {
	item, ok := DecodePlace(w, req)
	if !ok {
		return
	}
	res, err := c.Place(req.Context(), item.ID, item.Tasks)
	if err != nil {
		if !c.redirectToLeader(w, req, err) {
			writeQueryError(w, err)
		}
		return
	}
	WritePlaceResult(w, res)
}

// handlePlaceBatch places many gangs in one request. The batch always
// answers 200 with one envelope item per input, in input order; each item
// carries either the PlaceResult the single route would have returned or
// the APIError envelope it would have answered with. The one exception is
// leadership: when the items fail with a redirectable NotLeaderError the
// whole batch answers 307 to the leader, so a client that follows it
// re-issues the identical batch there.
func (c *Cluster) handlePlaceBatch(w http.ResponseWriter, req *http.Request) {
	items, ok := DecodePlaceBatch(w, req)
	if !ok {
		return
	}
	if len(items) > c.cfg.MaxBatchItems {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("batch of %d items exceeds the %d-item cap", len(items), c.cfg.MaxBatchItems), 0)
		return
	}
	results := c.PlaceBatch(req.Context(), items)
	out := make([]PlaceBatchEntry, len(results))
	for i, r := range results {
		out[i].ID = r.ID
		if r.Err != nil {
			if c.redirectToLeader(w, req, r.Err) {
				return
			}
			_, e, _ := queryError(r.Err)
			out[i].Error = &e
			continue
		}
		res := r.Result
		out[i].Result = &res
	}
	WritePlaceBatchReply(w, out)
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

func (c *Cluster) handleDAGPlace(w http.ResponseWriter, req *http.Request) {
	var body dagRequest
	if !decodeBody(w, req, &body) {
		return
	}
	if _, err := dag.NewAnalyzer(body.Analyzer); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	res, err := c.PlaceDAG(req.Context(), body.ID, body.Task, body.Analyzer)
	if err != nil {
		if !writeDAGError(w, err) && !c.redirectToLeader(w, req, err) {
			writeQueryError(w, err)
		}
		return
	}
	// Analytical and placement rejections are 200s: the Result carries the
	// typed reason (path-overrun, deadline-miss) and the blocking path.
	writeJSON(w, http.StatusOK, res)
}

func (c *Cluster) handleDAGAnalyze(w http.ResponseWriter, req *http.Request) {
	var body dagRequest
	if !decodeBody(w, req, &body) {
		return
	}
	rta, err := dag.NewAnalyzer(body.Analyzer)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	res, err := dag.New(c.cfg.Spec, rta).AnalyzeDAG(&body.Task)
	if err != nil {
		if !writeDAGError(w, err) {
			writeQueryError(w, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (c *Cluster) handleRemove(w http.ResponseWriter, req *http.Request) {
	id, ok := DecodeRemove(w, req)
	if !ok {
		return
	}
	v, err := c.Remove(req.Context(), id)
	if err != nil {
		if !c.redirectToLeader(w, req, err) {
			writeQueryError(w, err)
		}
		return
	}
	WriteRemoveReply(w, v)
}

func (c *Cluster) handleDrain(w http.ResponseWriter, req *http.Request) {
	var body nodeRequest
	if !decodeBody(w, req, &body) {
		return
	}
	// Detached context: a client hangup must not abort a multi-step
	// admin operation halfway through its moves.
	rep, err := c.Drain(context.WithoutCancel(req.Context()), body.Node)
	if err != nil {
		if !c.redirectToLeader(w, req, err) {
			writeQueryError(w, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (c *Cluster) handleUndrain(w http.ResponseWriter, req *http.Request) {
	var body nodeRequest
	if !decodeBody(w, req, &body) {
		return
	}
	if err := c.Undrain(body.Node); err != nil {
		if !c.redirectToLeader(w, req, err) {
			writeQueryError(w, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"node": body.Node})
}

func (c *Cluster) handleRebalance(w http.ResponseWriter, req *http.Request) {
	var body struct{}
	if !decodeBody(w, req, &body) {
		return
	}
	// Detached for the same reason as handleDrain.
	moved, err := c.Rebalance(context.WithoutCancel(req.Context()))
	if err != nil {
		if !c.redirectToLeader(w, req, err) {
			writeQueryError(w, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"moved": moved})
}

func (c *Cluster) handleStatus(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only", 0)
		return
	}
	// Status is served on every replica — a follower answers its durable
	// view (the fold of the committed log prefix it has applied), with
	// staleness headers so a client can judge how far behind it may be.
	if c.repl != nil {
		st := c.repl.Status()
		w.Header().Set("X-Hrtd-Repl-Role", st.RoleName)
		w.Header().Set("X-Hrtd-Repl-Term", fmt.Sprint(st.Term))
		w.Header().Set("X-Hrtd-Repl-Applied-Lsn", fmt.Sprint(st.AppliedLSN))
		w.Header().Set("X-Hrtd-Repl-Commit-Lsn", fmt.Sprint(st.CommitLSN))
		w.Header().Set("X-Hrtd-Repl-Leader-Contact-Ms", fmt.Sprint(st.MsSinceLeaderContact))
	}
	writeJSON(w, http.StatusOK, c.Status())
}

func (s *Server) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only", 0)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"shards":      len(s.shards),
		"queue_depth": s.QueueDepth(),
	})
}

func decodeQuery(w http.ResponseWriter, req *http.Request, into *analyzeRequest) bool {
	return decodeBody(w, req, into)
}

// codeStatus pairs every v1 envelope code with the HTTP status a whole
// reply carrying it answers with. queryError reads it, and so does a
// client rebuilding a per-item batch envelope into an error.
var codeStatus = map[string]int{
	"overloaded":         http.StatusTooManyRequests,
	"bad_request":        http.StatusBadRequest,
	"invalid_scenario":   http.StatusBadRequest,
	"conflict":           http.StatusConflict,
	"not_found":          http.StatusNotFound,
	"canceled":           statusClientClosedRequest,
	"not_leader":         http.StatusTemporaryRedirect,
	"no_leader":          http.StatusServiceUnavailable,
	"indeterminate":      http.StatusServiceUnavailable,
	"unavailable":        http.StatusServiceUnavailable,
	"invalid_dag":        http.StatusUnprocessableEntity,
	"method_not_allowed": http.StatusMethodNotAllowed,
	"internal":           http.StatusInternalServerError,
}

// StatusForCode returns the HTTP status the v1 contract pairs with an
// envelope code; an unknown code is an internal error.
func StatusForCode(code string) int {
	if status, ok := codeStatus[code]; ok {
		return status
	}
	return http.StatusInternalServerError
}

// queryError maps a session error to its v1 envelope: the HTTP status
// the single-item routes answer with (codeStatus pairs it with the code),
// the APIError body, and the Retry-After header value in whole seconds
// (0 = no header). Batch routes embed the envelope per item;
// writeQueryError writes it whole.
func queryError(err error) (status int, e APIError, retryAfterSecs int64) {
	var ae *core.AdmissionError
	e.Reason = err.Error()
	switch {
	case errors.As(err, &ae):
		// Load shed: tell the client when to come back, in the header
		// (whole seconds, rounded up) and the body (milliseconds).
		e.Code, e.RetryAfterMs = "overloaded", (ae.RetryAfterNs+999_999)/1_000_000
		if ae.RetryAfterNs > 0 {
			retryAfterSecs = (ae.RetryAfterNs + 999_999_999) / 1_000_000_000
		}
	case errors.Is(err, durable.ErrBadPlacement):
		e.Code = "bad_request"
	case errors.Is(err, ErrDuplicateID), errors.Is(err, ErrPendingID):
		e.Code = "conflict"
	case errors.Is(err, ErrUnknownID), errors.Is(err, ErrUnknownNode):
		e.Code = "not_found"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		e.Code = "canceled"
	case errors.As(err, new(*NotLeaderError)), errors.Is(err, ErrNoLeader), errors.Is(err, ErrLeaderNotReady):
		// Replica cannot take the mutation right now and no redirect was
		// possible: tell the client when to retry.
		e.Code, e.RetryAfterMs, retryAfterSecs = "no_leader", 1000, 1
	case errors.Is(err, ErrIndeterminate):
		// The mutation MAY have committed; the client must re-issue the
		// same id and treat a duplicate-id conflict as success.
		e.Code, e.RetryAfterMs, retryAfterSecs = "indeterminate", 1000, 1
	case errors.Is(err, ErrServerClosed), errors.Is(err, ErrClusterClosed):
		e.Code = "unavailable"
	default:
		e.Code = "internal"
	}
	return StatusForCode(e.Code), e, retryAfterSecs
}

// writeQueryError maps a session error to the v1 envelope.
func writeQueryError(w http.ResponseWriter, err error) {
	status, e, secs := queryError(err)
	WriteAPIError(w, status, e, secs)
}

// QueryError maps a session error to its v1 envelope — the exported form
// of the mapping the single-item routes use, for front-ends (the shard
// router) that must answer with byte-identical envelopes.
func QueryError(err error) (status int, e APIError, retryAfterSecs int64) {
	return queryError(err)
}

// WriteAPIError writes a pre-built envelope with the given status and
// optional Retry-After header (whole seconds; 0 = no header).
func WriteAPIError(w http.ResponseWriter, status int, e APIError, retryAfterSecs int64) {
	if retryAfterSecs > 0 {
		w.Header().Set("Retry-After", fmt.Sprint(retryAfterSecs))
	}
	writeJSON(w, status, e)
}

// WriteError writes the envelope for an ad-hoc code/reason pair.
func WriteError(w http.ResponseWriter, status int, code, reason string, retryAfterMs int64) {
	writeError(w, status, code, reason, retryAfterMs)
}

// WriteJSON writes v as the uniform JSON response (trailing newline
// included), answering 500 if it cannot marshal.
func WriteJSON(w http.ResponseWriter, status int, v any) { writeJSON(w, status, v) }

// DecodeBody parses a POST body into `into` with unknown fields rejected,
// answering the envelope on any protocol error. Returns false when the
// response has already been written.
func DecodeBody(w http.ResponseWriter, req *http.Request, into any) bool {
	return decodeBody(w, req, into)
}

// DecodePlace parses a /v1/cluster/place body as the served route does,
// answering the envelope and returning false on any protocol error.
func DecodePlace(w http.ResponseWriter, req *http.Request) (BatchPlaceItem, bool) {
	var body placeRequest
	ok := decodeBody(w, req, &body)
	return BatchPlaceItem(body), ok
}

// DecodePlaceBatch parses a /v1/cluster/place-batch body as the served
// route does, answering the envelope and returning false on any protocol
// error. The item cap is the caller's to check.
func DecodePlaceBatch(w http.ResponseWriter, req *http.Request) ([]BatchPlaceItem, bool) {
	var body placeBatchRequest
	if !decodeBody(w, req, &body) {
		return nil, false
	}
	items := make([]BatchPlaceItem, len(body.Items))
	for i, it := range body.Items {
		items[i] = BatchPlaceItem(it)
	}
	return items, true
}

// DecodeRemove parses a /v1/cluster/remove body as the served route does,
// answering the envelope and returning false on any protocol error.
func DecodeRemove(w http.ResponseWriter, req *http.Request) (string, bool) {
	var body idRequest
	ok := decodeBody(w, req, &body)
	return body.ID, ok
}

// WriteDAGErrorResponse answers a structural DAG rejection (422 with the
// typed dag_code envelope) and reports whether err was one. Front-ends
// replicating the /v1/dag/* contract use it before falling back to
// QueryError.
func WriteDAGErrorResponse(w http.ResponseWriter, err error) bool {
	return writeDAGError(w, err)
}

func writeError(w http.ResponseWriter, status int, code, reason string, retryAfterMs int64) {
	writeJSON(w, status, APIError{Code: code, Reason: reason, RetryAfterMs: retryAfterMs})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	w.Write(append(buf, '\n')) //nolint:errcheck — client hangup
}
