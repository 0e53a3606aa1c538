package serve

import (
	"context"
	"fmt"
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

// simSeedServiceNs seeds the shed retry-after quote before any run has
// been observed.
const simSeedServiceNs = int64(100 * time.Millisecond)

const (
	simHistLoUs     = 10
	simHistHiUs     = 10_000_000 // 10 s
	simHistNBuckets = 48
)

// simPool is the bounded gate in front of /v1/simulate. A simulation runs
// on its caller's goroutine once it holds a slot, and each slot carries a
// warm whatif.Node, so the slots are also the replica pool. At most depth
// callers wait for a slot; the next one sheds with the same contract as
// the query shards: 429 with a Retry-After quote sized from the callers
// waiting and the observed mean run time.
type simPool struct {
	slots   chan *whatif.Node
	depth   int
	waiting atomic.Int64
	calls   sync.WaitGroup // running and waiting calls, for Close

	requests     atomic.Int64
	shed         atomic.Int64
	errors       atomic.Int64
	canceled     atomic.Int64
	replications atomic.Int64
	hyperperiods atomic.Int64
	// svc tracks run wall time, feeding retry-after.
	svc serviceTime

	histMu sync.Mutex
	hist   *stats.Histogram
}

func newSimPool(slots, depth int) *simPool {
	p := &simPool{
		slots: make(chan *whatif.Node, slots),
		depth: depth,
		hist:  stats.NewLogHistogram(simHistLoUs, simHistHiUs, simHistNBuckets),
	}
	for range slots {
		p.slots <- new(whatif.Node)
	}
	p.svc.ns.Store(simSeedServiceNs)
	return p
}

// acquire takes a slot's node, waiting behind at most depth other callers.
func (p *simPool) acquire(ctx context.Context) (*whatif.Node, error) {
	select {
	case node := <-p.slots:
		return node, nil
	default:
	}
	if w := p.waiting.Add(1); w > int64(p.depth) {
		p.waiting.Add(-1)
		p.shed.Add(1)
		return nil, &core.AdmissionError{
			Reason:       "server-overload",
			Detail:       fmt.Sprintf("simulate queue full (%d waiting)", p.depth),
			RetryAfterNs: p.svc.retryAfterNs(int(w-1), cap(p.slots)),
		}
	}
	defer p.waiting.Add(-1)
	select {
	case node := <-p.slots:
		return node, nil
	case <-ctx.Done():
		p.canceled.Add(1)
		return nil, ctx.Err()
	}
}

// Simulate runs one what-if scenario on the caller's goroutine once a
// slot is free. The scenario must already be normalized and validated (the
// /v1/simulate handler does this so malformed scenarios answer 400, not
// 500). A full wait line sheds with the standard overload error.
func (s *Server) Simulate(ctx context.Context, req SimulateRequest) (*whatif.Report, error) {
	p := s.sim
	p.requests.Add(1)
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return nil, ErrServerClosed
	}
	p.calls.Add(1)
	s.closeMu.RUnlock()
	defer p.calls.Done()

	node, err := p.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer func() { p.slots <- node }()
	start := time.Now()
	report, err := node.Run(req.Scenario, req.Seed)
	elapsed := time.Since(start)
	if err != nil {
		p.errors.Add(1)
		return nil, err
	}
	p.replications.Add(int64(report.Replications))
	p.hyperperiods.Add(int64(report.Replications * report.Hyperperiods))
	p.svc.observe(elapsed, 1)
	p.histMu.Lock()
	p.hist.Add(float64(elapsed.Microseconds()))
	p.histMu.Unlock()
	return report, nil
}

func (s *Server) registerSimMetrics() {
	p := s.sim
	r := s.reg
	r.Counter("hrtd_whatif_requests_total", "Simulation requests received.",
		func() float64 { return float64(p.requests.Load()) })
	r.Counter("hrtd_whatif_shed_total", "Simulation requests shed: too many waiting for a slot.",
		func() float64 { return float64(p.shed.Load()) })
	r.Counter("hrtd_whatif_errors_total", "Simulation runs that failed.",
		func() float64 { return float64(p.errors.Load()) })
	r.Counter("hrtd_whatif_canceled_total", "Simulation requests dropped: context canceled while waiting for a slot.",
		func() float64 { return float64(p.canceled.Load()) })
	r.Counter("hrtd_whatif_replications_total", "Seeded replications executed.",
		func() float64 { return float64(p.replications.Load()) })
	r.Counter("hrtd_whatif_hyperperiods_total", "Hyperperiods simulated across all replications.",
		func() float64 { return float64(p.hyperperiods.Load()) })
	r.Gauge("hrtd_whatif_workers", "Simulation slots, each with a warm simulated node.",
		func() float64 { return float64(cap(p.slots)) })
	r.Gauge("hrtd_whatif_queue_depth", "Simulation requests waiting for a slot.",
		func() float64 { return float64(p.waiting.Load()) })
	r.Gauge("hrtd_whatif_inflight", "Simulation requests executing now.",
		func() float64 { return float64(cap(p.slots) - len(p.slots)) })
	r.Histogram("hrtd_whatif_run_duration_us", "Simulation run wall time in microseconds.",
		func() []HistSample {
			p.histMu.Lock()
			c := p.hist.Clone()
			p.histMu.Unlock()
			return []HistSample{{H: c}}
		})
}
