package route

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"hrtsched/internal/dag"
	"hrtsched/internal/plan"
	"hrtsched/internal/serve"
	"hrtsched/internal/whatif"
)

// EnvelopeError carries a shard group's v1 error envelope through the
// router verbatim: the HTTP layer re-emits Status, Envelope, and the
// Retry-After header unchanged, so a group's 429/409/404/503 contracts
// survive the extra hop byte-identically.
type EnvelopeError struct {
	Status         int
	Envelope       serve.APIError
	RetryAfterSecs int64
}

// Error implements error.
func (e *EnvelopeError) Error() string {
	return fmt.Sprintf("route: group answered %d %s: %s", e.Status, e.Envelope.Code, e.Envelope.Reason)
}

// Is maps envelope codes back onto the serve sentinels, so router-level
// logic (and callers) can errors.Is a remote group's answer exactly like a
// local one's.
func (e *EnvelopeError) Is(target error) bool {
	switch e.Envelope.Code {
	case "not_found":
		return target == serve.ErrUnknownID || target == serve.ErrUnknownNode
	case "conflict":
		return target == serve.ErrDuplicateID
	case "no_leader":
		return target == serve.ErrNoLeader
	case "indeterminate":
		return target == serve.ErrIndeterminate
	case "unavailable":
		return target == serve.ErrClusterClosed
	}
	return false
}

// statusForCode maps an envelope code to the HTTP status the v1 contract
// pairs it with — used when only the embedded (per-item) envelope is on
// the wire.
func statusForCode(code string) int {
	switch code {
	case "overloaded":
		return http.StatusTooManyRequests
	case "conflict":
		return http.StatusConflict
	case "not_found":
		return http.StatusNotFound
	case "canceled":
		return 499
	case "no_leader", "indeterminate", "unavailable":
		return http.StatusServiceUnavailable
	case "bad_request":
		return http.StatusBadRequest
	case "invalid_dag":
		return http.StatusUnprocessableEntity
	case "method_not_allowed":
		return http.StatusMethodNotAllowed
	default:
		return http.StatusInternalServerError
	}
}

// RemoteGroup speaks the /v1/ HTTP contract to a shard-group daemon. Its
// client follows 307 leader redirects internally (the request body is
// replayable), so a replicated group's follower URL works as the group
// address; when no leader is electable the group's 503 no_leader envelope
// passes through as an EnvelopeError. RemoteGroup does not implement
// Migrator: cross-shard migrations need the evaluate-only probe surface,
// which stays in-process.
type RemoteGroup struct {
	base     string
	client   *http.Client
	nodes    int
	maxBatch int
}

// NewRemoteGroup probes the group daemon's status to learn its node count
// and returns the adapter. The timeout bounds every request to the group,
// including this probe.
func NewRemoteGroup(ctx context.Context, baseURL string, timeout time.Duration) (*RemoteGroup, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	g := &RemoteGroup{
		base:     trimSlash(baseURL),
		client:   &http.Client{Timeout: timeout},
		maxBatch: serve.DefaultMaxBatchItems,
	}
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

func trimSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}

// BaseURL returns the group daemon's address.
func (g *RemoteGroup) BaseURL() string { return g.base }

// NodeCount implements Group.
func (g *RemoteGroup) NodeCount() int { return g.nodes }

// MaxBatchItems implements Group. The group's cap is not discoverable
// without tripping it, so the adapter assumes the default; SetMaxBatchItems
// overrides it for groups running a custom cap.
func (g *RemoteGroup) MaxBatchItems() int { return g.maxBatch }

// SetMaxBatchItems overrides the assumed place-batch cap.
func (g *RemoteGroup) SetMaxBatchItems(n int) {
	if n > 0 {
		g.maxBatch = n
	}
}

// do round-trips one JSON request. Transport failures wrap
// ErrGroupUnreachable; protocol errors decode into EnvelopeError.
func (g *RemoteGroup) do(ctx context.Context, method, path string, body, out any) error {
	var req *http.Request
	var err error
	if method == http.MethodGet {
		req, err = http.NewRequestWithContext(ctx, method, g.base+path, nil)
	} else {
		var buf []byte
		buf, err = json.Marshal(body)
		if err == nil {
			req, err = http.NewRequestWithContext(ctx, method, g.base+path, bytes.NewReader(buf))
			if req != nil {
				req.Header.Set("Content-Type", "application/json")
			}
		}
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrGroupUnreachable, err)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrGroupUnreachable, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		e := &EnvelopeError{Status: resp.StatusCode}
		if derr := json.NewDecoder(resp.Body).Decode(&e.Envelope); derr != nil || e.Envelope.Code == "" {
			e.Envelope = serve.APIError{Code: "internal",
				Reason: fmt.Sprintf("group answered %d with an undecodable body", resp.StatusCode)}
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, perr := strconv.ParseInt(ra, 10, 64); perr == nil {
				e.RetryAfterSecs = secs
			}
		}
		return e
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%w: decoding %s: %v", ErrGroupUnreachable, path, err)
	}
	return nil
}

type wirePlaceRequest struct {
	ID    string       `json:"id"`
	Tasks plan.TaskSet `json:"tasks"`
}

type wireBatchRequest struct {
	Items []wirePlaceRequest `json:"items"`
}

type wireIDRequest struct {
	ID string `json:"id"`
}

type wireNodeRequest struct {
	Node int `json:"node"`
}

type wireDAGRequest struct {
	ID       string   `json:"id,omitempty"`
	Task     dag.Task `json:"task"`
	Analyzer string   `json:"analyzer,omitempty"`
}

// Place implements Group.
func (g *RemoteGroup) Place(ctx context.Context, id string, set plan.TaskSet) (serve.PlaceResult, error) {
	var res serve.PlaceResult
	err := g.do(ctx, http.MethodPost, "/v1/cluster/place", wirePlaceRequest{ID: id, Tasks: set}, &res)
	return res, err
}

// PlaceBatch implements Group. A transport failure fails every item with
// the same unreachable error; protocol failures come back per item as
// EnvelopeErrors, exactly as the group embedded them.
func (g *RemoteGroup) PlaceBatch(ctx context.Context, items []serve.BatchPlaceItem) []serve.BatchPlaceResult {
	out := make([]serve.BatchPlaceResult, len(items))
	req := wireBatchRequest{Items: make([]wirePlaceRequest, len(items))}
	for i, it := range items {
		req.Items[i] = wirePlaceRequest{ID: it.ID, Tasks: it.Tasks}
		out[i] = serve.BatchPlaceResult{ID: it.ID, Result: serve.PlaceResult{Node: -1}}
	}
	var resp struct {
		Items []serve.PlaceBatchEntry `json:"items"`
	}
	if err := g.do(ctx, http.MethodPost, "/v1/cluster/place-batch", req, &resp); err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	for i := range out {
		if i >= len(resp.Items) {
			out[i].Err = fmt.Errorf("%w: group answered %d items for %d",
				ErrGroupUnreachable, len(resp.Items), len(items))
			continue
		}
		it := resp.Items[i]
		switch {
		case it.Error != nil:
			out[i].Err = &EnvelopeError{Status: statusForCode(it.Error.Code), Envelope: *it.Error}
		case it.Result != nil:
			out[i].Result = *it.Result
		}
	}
	return out
}

// PlaceDAG implements Group.
func (g *RemoteGroup) PlaceDAG(ctx context.Context, id string, t dag.Task, analyzer string) (serve.DAGPlaceResult, error) {
	var res serve.DAGPlaceResult
	err := g.do(ctx, http.MethodPost, "/v1/dag/place",
		wireDAGRequest{ID: id, Task: t, Analyzer: analyzer}, &res)
	return res, err
}

// AnalyzeDAG implements Group.
func (g *RemoteGroup) AnalyzeDAG(ctx context.Context, t dag.Task, analyzer string) (dag.Result, error) {
	var res dag.Result
	err := g.do(ctx, http.MethodPost, "/v1/dag/analyze",
		wireDAGRequest{Task: t, Analyzer: analyzer}, &res)
	return res, err
}

// Simulate implements Simulator: every remote group daemon serves
// /v1/simulate, so the router can always forward what-if runs here.
func (g *RemoteGroup) Simulate(ctx context.Context, req serve.SimulateRequest) (*whatif.Report, error) {
	var rep whatif.Report
	if err := g.do(ctx, http.MethodPost, "/v1/simulate", req, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Remove implements Group.
func (g *RemoteGroup) Remove(ctx context.Context, id string) (plan.Verdict, error) {
	var resp struct {
		Verdict plan.Verdict `json:"verdict"`
	}
	err := g.do(ctx, http.MethodPost, "/v1/cluster/remove", wireIDRequest{ID: id}, &resp)
	return resp.Verdict, err
}

// Drain implements Group.
func (g *RemoteGroup) Drain(ctx context.Context, localNode int) (serve.DrainReport, error) {
	var rep serve.DrainReport
	err := g.do(ctx, http.MethodPost, "/v1/cluster/drain", wireNodeRequest{Node: localNode}, &rep)
	return rep, err
}

// Undrain implements Group.
func (g *RemoteGroup) Undrain(ctx context.Context, localNode int) error {
	return g.do(ctx, http.MethodPost, "/v1/cluster/undrain", wireNodeRequest{Node: localNode}, nil)
}

// Rebalance implements Group.
func (g *RemoteGroup) Rebalance(ctx context.Context) (int, error) {
	var resp struct {
		Moved int `json:"moved"`
	}
	err := g.do(ctx, http.MethodPost, "/v1/cluster/rebalance", struct{}{}, &resp)
	return resp.Moved, err
}

// Status implements Group.
func (g *RemoteGroup) Status(ctx context.Context) (serve.ClusterStatus, error) {
	var st serve.ClusterStatus
	err := g.do(ctx, http.MethodGet, "/v1/cluster/status", nil, &st)
	return st, err
}
