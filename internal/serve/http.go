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

// DefaultMaxBatchItems caps the item count of one /v1/analyze-batch or
// /v1/cluster/place-batch request; larger batches answer 400 so a client
// cannot queue unbounded work behind one POST. The 400 body quotes the
// cap, and the shard router chunks each group's sub-batch by it.
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
	for _, rt := range Routes(clusterBackend{c, s}) {
		// Without a cluster only /v1/simulate is served; the cluster and
		// DAG routes fall through to the 404 below.
		if c != nil || rt.Path == "/v1/simulate" {
			mux.HandleFunc(rt.Path, rt.Handler)
		}
	}
	if c != nil && c.repl != nil {
		// Peer-to-peer consensus RPCs (append, vote, timeout-now).
		h := repl.Handler(c.repl)
		mux.Handle(repl.PathAppend, h)
		mux.Handle(repl.PathVote, h)
		mux.Handle(repl.PathTimeoutNow, h)
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
	if !decodeBody(w, req, &body) {
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
	if overBatchCap(w, len(body.Items)) {
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
	if !decodeBody(w, req, &body) {
		return
	}
	rep, err := s.CapacityContext(req.Context(), body.Tasks, body.ProbePeriodNs)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
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
// of a cluster's mapping, which the shard router's Backend.Envelope falls
// back on for every failure that is not a remote group's own envelope.
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
