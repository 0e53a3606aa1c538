// Package serve is the admission-query service: a production-shaped daemon
// layer over the pure schedulability engine in internal/plan. Queries are
// routed to worker shards by canonical task-set digest (so identical sets
// always land on the shard holding their cached verdict), batched per shard
// by a greedy drain of a bounded queue, answered from the shard's
// plan.Memo when possible, and shed with a structured retry-after error
// when the queue is full. Everything observable is exported through the
// pull-based metrics Registry.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hrtsched/internal/core"
	"hrtsched/internal/machine"
	"hrtsched/internal/plan"
	"hrtsched/internal/stats"
)

// SpecFor is plan.SpecFor, kept for callers that reach the analysis spec
// through this package.
func SpecFor(m machine.Spec, utilLimit float64) plan.Spec { return plan.SpecFor(m, utilLimit) }

// ErrServerClosed is returned by queries submitted after Close.
var ErrServerClosed = errors.New("serve: server closed")

// shardBatch caps how many queued requests one shard worker answers as a
// batch, and cacheEntries bounds each shard's plan.Memo, which its analyze
// and capacity queries share.
const (
	shardBatch   = 64
	cacheEntries = 4096
)

// Latency histogram shape: 10 us resolution over [0, 20 ms). Local
// admission queries answer in tens to hundreds of microseconds; anything
// past 20 ms lands in the overflow bucket and pins the quantile at Hi.
const (
	latHistLoUs     = 0
	latHistHiUs     = 20_000
	latHistNBuckets = 2_000
)

// Config parameterizes a Server. Zero fields take defaults.
type Config struct {
	// Spec is the platform model every analysis runs against.
	Spec plan.Spec
	// Shards is the number of worker shards; default GOMAXPROCS.
	Shards int
	// QueueDepth bounds each shard's request queue; default 1024.
	QueueDepth int
	// SimWorkers is how many /v1/simulate requests run at once, each on
	// its caller's goroutine with a warm simulated node of its own;
	// default GOMAXPROCS. A request simulates for about a hundred
	// microseconds, so every CPU can take one.
	SimWorkers int
	// SimQueueDepth bounds how many /v1/simulate requests wait for a
	// slot; default 16. The next one sheds with 429 and a Retry-After
	// quote.
	SimQueueDepth int
}

func (c *Config) fillDefaults() {
	if c.Shards == 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 1024
	}
	if c.SimWorkers == 0 {
		c.SimWorkers = runtime.GOMAXPROCS(0)
	}
	if c.SimQueueDepth == 0 {
		c.SimQueueDepth = 16
	}
}

// Validate rejects nonsensical settings (negative counts, bad spec).
func (c Config) Validate() error {
	if c.Shards < 0 || c.QueueDepth < 0 || c.SimWorkers < 0 || c.SimQueueDepth < 0 {
		return fmt.Errorf("serve: negative config value: %+v", c)
	}
	return checkSpec(c.Spec)
}

// checkSpec rejects a negative overhead and a utilization limit outside
// (0,1]. The limit test is written so that NaN fails it too.
func checkSpec(s plan.Spec) error {
	if s.OverheadNs < 0 {
		return fmt.Errorf("serve: negative overhead %dns", s.OverheadNs)
	}
	if u := s.UtilizationLimit; !(u > 0 && u <= 1) {
		return fmt.Errorf("serve: utilization limit %g outside (0,1]", u)
	}
	return nil
}

type queryKind uint8

const (
	analyzeQuery queryKind = iota
	capacityQuery
)

type request struct {
	ctx     context.Context
	kind    queryKind
	set     plan.TaskSet // canonicalized before routing
	digest  uint64
	probeNs int64
	start   time.Time
	done    chan response
}

type response struct {
	verdict  plan.Verdict
	capacity plan.CapacityReport
	cached   bool
	canceled bool
}

type shard struct {
	id int
	ch chan *request
	// memo is the shard's one cache: analyze queries answer from its
	// verdicts, and capacity queries patch its demand-bound curves
	// instead of re-simulating the hyperperiod per binary-search step.
	// Only the shard goroutine queries it.
	memo *plan.Memo

	// svc sizes the shed retry-after quote.
	svc serviceTime

	// histMu guards hist; the shard goroutine writes it, scrapes clone it.
	histMu sync.Mutex
	hist   *stats.Histogram

	hits      atomic.Int64
	misses    atomic.Int64
	shed      atomic.Int64
	processed atomic.Int64
	batches   atomic.Int64
	entries   atomic.Int64
	canceled  atomic.Int64
}

// Server is the sharded admission-query service.
type Server struct {
	cfg    Config
	shards []*shard
	sim    *simPool
	reg    *Registry

	wg sync.WaitGroup // shard goroutines

	// closeMu serializes queue sends against Close: submitters hold the
	// read side across the closed-check and the (non-blocking) channel
	// send, so once Close holds the write side no new send can race the
	// channel close.
	closeMu sync.RWMutex
	closed  bool
}

// New starts a server with cfg's shards running. Close releases them.
func New(cfg Config) (*Server, error) {
	s, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	for _, sh := range s.shards {
		s.wg.Add(1)
		go s.runShard(sh)
	}
	return s, nil
}

// newServer builds the server without starting the shard workers; tests
// use it to exercise queue-full behaviour without a drain race.
func newServer(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	s := &Server{cfg: cfg, shards: make([]*shard, cfg.Shards)}
	for i := range s.shards {
		s.shards[i] = &shard{
			id:   i,
			ch:   make(chan *request, cfg.QueueDepth),
			memo: plan.NewMemo(cfg.Spec, cacheEntries),
			hist: stats.NewHistogram(latHistLoUs, latHistHiUs, latHistNBuckets),
		}
		s.shards[i].svc.ns.Store(queueSeedServiceNs)
	}
	s.sim = newSimPool(cfg.SimWorkers, cfg.SimQueueDepth)
	s.reg = NewRegistry()
	s.registerMetrics()
	s.registerSimMetrics()
	return s, nil
}

// Registry returns the server's metrics registry so callers can add their
// own collectors (e.g. kernel robustness counters) before exposing it.
func (s *Server) Registry() *Registry { return s.reg }

// Config returns the effective configuration after defaulting.
func (s *Server) Config() Config { return s.cfg }

// Close stops accepting queries, drains the queues, and waits for the
// shard workers to exit and for the simulations running or waiting for a
// slot to return. Safe to call more than once.
func (s *Server) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	s.closeMu.Unlock()
	for _, sh := range s.shards {
		close(sh.ch)
	}
	s.wg.Wait()
	s.sim.calls.Wait()
}

// AnalyzeContext answers an admission query for set, from cache when
// possible. The returned bool reports whether the answer came from the
// cache. Canceling ctx abandons the query: a request whose context is
// done when its shard dequeues it is dropped unanswered and counted in
// hrtd_canceled_total.
func (s *Server) AnalyzeContext(ctx context.Context, set plan.TaskSet) (plan.Verdict, bool, error) {
	resp, err := s.submit(ctx, &request{kind: analyzeQuery, set: set})
	return resp.verdict, resp.cached, err
}

// AnalyzeBatchContext answers many admission queries in one call, fanning
// the sets out across their digest-routed shards concurrently and
// collecting the answers in input order. Each verdict — and each cached
// flag — is exactly what AnalyzeContext would have returned for that set
// alone, so batch and single-item answers are byte-identical on the wire.
// The error contract is all-or-nothing: the first per-item error (shed,
// cancellation, server closed) in input order fails the whole batch.
func (s *Server) AnalyzeBatchContext(ctx context.Context, sets []plan.TaskSet) ([]plan.Verdict, []bool, error) {
	verdicts := make([]plan.Verdict, len(sets))
	cached := make([]bool, len(sets))
	errs := make([]error, len(sets))
	var wg sync.WaitGroup
	for i := range sets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			verdicts[i], cached[i], errs[i] = s.AnalyzeContext(ctx, sets[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return verdicts, cached, nil
}

// CapacityContext answers a what-if capacity query for set with
// cancellation; see plan.Capacity and AnalyzeContext.
func (s *Server) CapacityContext(ctx context.Context, set plan.TaskSet, probeNs int64) (plan.CapacityReport, error) {
	resp, err := s.submit(ctx, &request{kind: capacityQuery, set: set, probeNs: probeNs})
	return resp.capacity, err
}

func (s *Server) submit(ctx context.Context, r *request) (response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r.ctx = ctx
	r.set, r.digest = r.set.CanonicalDigest()
	r.done = make(chan response, 1)
	r.start = time.Now()
	sh := s.shards[r.digest%uint64(len(s.shards))]

	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return response{}, ErrServerClosed
	}
	var shed bool
	select {
	case sh.ch <- r:
	default:
		shed = true
	}
	s.closeMu.RUnlock()

	if shed {
		sh.shed.Add(1)
		return response{}, &core.AdmissionError{
			Reason:       "server-overload",
			Detail:       fmt.Sprintf("shard %d queue full (%d deep)", sh.id, s.cfg.QueueDepth),
			RetryAfterNs: sh.svc.retryAfterNs(len(sh.ch), 1),
		}
	}
	select {
	case resp := <-r.done:
		if resp.canceled {
			return response{}, ctx.Err()
		}
		return resp, nil
	case <-ctx.Done():
		return response{}, ctx.Err()
	}
}

// runShard is a shard's worker loop: greedily drained batches, answered
// in order.
func (s *Server) runShard(sh *shard) {
	defer s.wg.Done()
	greedyDrain(sh.ch, shardBatch, func(batch []*request) {
		sh.batches.Add(1)
		s.process(sh, batch)
	})
}

func (s *Server) process(sh *shard, batch []*request) {
	start := sh.svc.begin(len(batch) + len(sh.ch))
	for _, r := range batch {
		if r.ctx != nil && r.ctx.Err() != nil {
			// The caller gave up while this request was queued: drop it
			// unanswered rather than spend analysis work on it.
			sh.canceled.Add(1)
			r.done <- response{canceled: true}
			continue
		}
		var resp response
		switch r.kind {
		case analyzeQuery:
			// r.set is canonical and r.digest is its digest, so a hit
			// costs a map lookup and a set comparison.
			v, hit := sh.memo.AnalyzeCanonical(r.set, r.digest)
			if hit {
				sh.hits.Add(1)
			} else {
				sh.misses.Add(1)
			}
			resp = response{verdict: v, cached: hit}
		case capacityQuery:
			// The memoized answer is bit-identical to plan.Capacity on
			// the canonical set, with the hyperperiod simulations
			// replaced by curve patches.
			resp = response{capacity: sh.memo.Capacity(r.set, r.probeNs)}
		}
		sh.entries.Store(int64(sh.memo.Len()))
		lat := float64(time.Since(r.start).Nanoseconds()) / 1e3
		sh.histMu.Lock()
		sh.hist.Add(lat)
		sh.histMu.Unlock()
		sh.processed.Add(1)
		r.done <- resp
	}
	sh.svc.end(start, len(batch))
}

// QueueDepth returns the total number of requests currently queued.
func (s *Server) QueueDepth() int {
	n := 0
	for _, sh := range s.shards {
		n += len(sh.ch)
	}
	return n
}

// CacheHitRate returns hits/(hits+misses) across shards, 0 before any query.
func (s *Server) CacheHitRate() float64 {
	var hits, misses int64
	for _, sh := range s.shards {
		hits += sh.hits.Load()
		misses += sh.misses.Load()
	}
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// ShedCount returns the total number of load-shed requests.
func (s *Server) ShedCount() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.shed.Load()
	}
	return n
}

// mergedLatency clones and merges every shard's latency histogram.
func (s *Server) mergedLatency() *stats.Histogram {
	merged := stats.NewHistogram(latHistLoUs, latHistHiUs, latHistNBuckets)
	for _, sh := range s.shards {
		sh.histMu.Lock()
		c := sh.hist.Clone()
		sh.histMu.Unlock()
		merged.Merge(c) //nolint:errcheck — identical shapes by construction
	}
	return merged
}

func (s *Server) registerMetrics() {
	perShard := func(val func(*shard) float64) func() []Sample {
		return func() []Sample {
			out := make([]Sample, len(s.shards))
			for i, sh := range s.shards {
				out[i] = Sample{Labels: []Label{{"shard", fmt.Sprint(sh.id)}}, Value: val(sh)}
			}
			return out
		}
	}
	r := s.reg
	r.Gauge("hrtd_shards", "Number of worker shards.", func() float64 {
		return float64(len(s.shards))
	})
	r.GaugeVec("hrtd_queue_depth", "Requests queued per shard.",
		perShard(func(sh *shard) float64 { return float64(len(sh.ch)) }))
	r.Gauge("hrtd_queue_capacity", "Per-shard queue capacity.", func() float64 {
		return float64(s.cfg.QueueDepth)
	})
	r.CounterVec("hrtd_requests_total", "Requests answered per shard.",
		perShard(func(sh *shard) float64 { return float64(sh.processed.Load()) }))
	r.CounterVec("hrtd_batches_total", "Batches flushed per shard.",
		perShard(func(sh *shard) float64 { return float64(sh.batches.Load()) }))
	r.CounterVec("hrtd_cache_hits_total", "Verdict cache hits per shard.",
		perShard(func(sh *shard) float64 { return float64(sh.hits.Load()) }))
	r.CounterVec("hrtd_cache_misses_total", "Verdict cache misses per shard.",
		perShard(func(sh *shard) float64 { return float64(sh.misses.Load()) }))
	r.GaugeVec("hrtd_cache_entries", "Live cache entries per shard, analyze and capacity sets alike.",
		perShard(func(sh *shard) float64 { return float64(sh.entries.Load()) }))
	r.Gauge("hrtd_cache_hit_rate", "Aggregate cache hit rate in [0,1].", s.CacheHitRate)
	r.CounterVec("hrtd_shed_total", "Load-shed requests per shard.",
		perShard(func(sh *shard) float64 { return float64(sh.shed.Load()) }))
	r.CounterVec("hrtd_canceled_total", "Requests dropped per shard: context canceled while queued.",
		perShard(func(sh *shard) float64 { return float64(sh.canceled.Load()) }))
	r.Histogram("hrtd_latency_us", "Query latency in microseconds per shard.",
		func() []HistSample {
			out := make([]HistSample, 0, len(s.shards)+1)
			for _, sh := range s.shards {
				sh.histMu.Lock()
				c := sh.hist.Clone()
				sh.histMu.Unlock()
				out = append(out, HistSample{Labels: []Label{{"shard", fmt.Sprint(sh.id)}}, H: c})
			}
			return out
		})
	r.GaugeVec("hrtd_latency_quantile_us", "Merged query latency quantiles (us).",
		func() []Sample {
			merged := s.mergedLatency()
			qs := []struct {
				label string
				q     float64
			}{{"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}}
			out := make([]Sample, 0, len(qs))
			for _, e := range qs {
				v := merged.Quantile(e.q)
				if merged.N() == 0 {
					v = 0 // render 0, not NaN, before any traffic
				}
				out = append(out, Sample{Labels: []Label{{"q", e.label}}, Value: v})
			}
			return out
		})
}
