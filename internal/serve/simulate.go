package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hrtsched/internal/core"
	"hrtsched/internal/stats"
	"hrtsched/internal/whatif"
)

// SimulateRequest is the body of POST /v1/simulate: one what-if scenario
// and the root seed of its replication streams. Equal requests produce
// byte-identical responses.
type SimulateRequest struct {
	Scenario whatif.Scenario `json:"scenario"`
	Seed     uint64          `json:"seed"`
}

// simSeedServiceNs seeds the shed retry-after quote before the pool has
// observed any run.
const simSeedServiceNs = int64(100 * time.Millisecond)

const (
	simHistLoUs     = 10
	simHistHiUs     = 10_000_000 // 10 s
	simHistNBuckets = 48
)

type simResult struct {
	report *whatif.Report
	err    error
}

type simJob struct {
	ctx  context.Context
	req  SimulateRequest
	done chan simResult
}

// simPool is the bounded worker pool behind /v1/simulate. Simulation is
// CPU-bound for whole milliseconds at a time — orders of magnitude heavier
// than an admission query — so it gets its own small pool and queue with
// the same shed contract as the query shards: a full queue answers 429
// with a Retry-After quote sized from the queue depth and the observed
// mean run time.
type simPool struct {
	workers int
	ch      chan *simJob
	wg      sync.WaitGroup

	requests     atomic.Int64
	shed         atomic.Int64
	errors       atomic.Int64
	canceled     atomic.Int64
	replications atomic.Int64
	hyperperiods atomic.Int64
	inflight     atomic.Int64
	// svc tracks run wall time, feeding retry-after.
	svc serviceTime

	histMu sync.Mutex
	hist   *stats.Histogram
}

func newSimPool(workers, depth int) *simPool {
	p := &simPool{
		workers: workers,
		ch:      make(chan *simJob, depth),
		hist:    stats.NewLogHistogram(simHistLoUs, simHistHiUs, simHistNBuckets),
	}
	p.svc.ns.Store(simSeedServiceNs)
	return p
}

func (p *simPool) run() {
	defer p.wg.Done()
	for job := range p.ch {
		if job.ctx.Err() != nil {
			p.canceled.Add(1)
			job.done <- simResult{err: job.ctx.Err()}
			continue
		}
		p.inflight.Add(1)
		start := time.Now()
		report, err := whatif.Run(job.req.Scenario, job.req.Seed)
		elapsed := time.Since(start)
		p.inflight.Add(-1)
		if err != nil {
			p.errors.Add(1)
		} else {
			p.replications.Add(int64(report.Replications))
			p.hyperperiods.Add(int64(report.Replications * report.Hyperperiods))
			p.svc.observe(elapsed, 1)
			p.histMu.Lock()
			p.hist.Add(float64(elapsed.Microseconds()))
			p.histMu.Unlock()
		}
		job.done <- simResult{report: report, err: err}
	}
}

// Simulate runs one what-if scenario on the simulation pool. The scenario
// must already be normalized and validated (the HTTP handler and router do
// this so malformed scenarios answer 400, not 500). A full queue sheds
// with the standard overload error.
func (s *Server) Simulate(ctx context.Context, req SimulateRequest) (*whatif.Report, error) {
	p := s.sim
	p.requests.Add(1)
	job := &simJob{ctx: ctx, req: req, done: make(chan simResult, 1)}

	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return nil, ErrServerClosed
	}
	shed := false
	select {
	case p.ch <- job:
	default:
		shed = true
	}
	s.closeMu.RUnlock()
	if shed {
		p.shed.Add(1)
		return nil, &core.AdmissionError{
			Reason:       "server-overload",
			Detail:       fmt.Sprintf("simulate queue full (%d deep)", cap(p.ch)),
			RetryAfterNs: p.svc.retryAfterNs(len(p.ch), p.workers),
		}
	}
	select {
	case res := <-job.done:
		return res.report, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// handleSimulate answers POST /v1/simulate.
func (s *Server) handleSimulate(w http.ResponseWriter, req *http.Request) {
	var body SimulateRequest
	if !decodeBody(w, req, &body) {
		return
	}
	body.Scenario = body.Scenario.Normalize()
	if err := body.Scenario.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid_scenario", err.Error(), 0)
		return
	}
	report, err := s.Simulate(req.Context(), body)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, report)
}

func (s *Server) registerSimMetrics() {
	p := s.sim
	r := s.reg
	r.Counter("hrtd_whatif_requests_total", "Simulation requests received.",
		func() float64 { return float64(p.requests.Load()) })
	r.Counter("hrtd_whatif_shed_total", "Simulation requests shed: queue full.",
		func() float64 { return float64(p.shed.Load()) })
	r.Counter("hrtd_whatif_errors_total", "Simulation runs that failed.",
		func() float64 { return float64(p.errors.Load()) })
	r.Counter("hrtd_whatif_canceled_total", "Simulation jobs dropped: context canceled while queued.",
		func() float64 { return float64(p.canceled.Load()) })
	r.Counter("hrtd_whatif_replications_total", "Seeded replications executed.",
		func() float64 { return float64(p.replications.Load()) })
	r.Counter("hrtd_whatif_hyperperiods_total", "Hyperperiods simulated across all replications.",
		func() float64 { return float64(p.hyperperiods.Load()) })
	r.Gauge("hrtd_whatif_workers", "Simulation worker pool size.",
		func() float64 { return float64(p.workers) })
	r.Gauge("hrtd_whatif_queue_depth", "Simulation jobs queued.",
		func() float64 { return float64(len(p.ch)) })
	r.Gauge("hrtd_whatif_inflight", "Simulation jobs executing now.",
		func() float64 { return float64(p.inflight.Load()) })
	r.Histogram("hrtd_whatif_run_duration_us", "Simulation run wall time in microseconds.",
		func() []HistSample {
			p.histMu.Lock()
			c := p.hist.Clone()
			p.histMu.Unlock()
			return []HistSample{{H: c}}
		})
}
