package route

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hrtsched/internal/client"
	"hrtsched/internal/serve"
	"hrtsched/internal/stats"
)

// Latency histogram shape mirrors the serve layer: 10 us resolution over
// [0, 20 ms); the fan-out histogram counts groups touched per batch.
const (
	routeLatLoUs    = 0
	routeLatHiUs    = 20_000
	routeLatBuckets = 2_000
	fanoutMax       = 64
)

// routeMetrics holds the router's counters and histograms; everything is
// sampled lazily by the registry at scrape time.
type routeMetrics struct {
	reqs        []atomic.Int64
	errs        []atomic.Int64
	unreachable []atomic.Int64

	histMu     sync.Mutex
	groupHists []*stats.Histogram
	fanoutHist *stats.Histogram

	// placed counts placements committed through this router (single,
	// batched, and DAG routes) — the routed analogue of the per-group
	// hrtd_cluster_placed_total, so fleet probes work against a router
	// that owns no cluster of its own.
	placed atomic.Int64

	migrations     atomic.Int64
	migrationFails atomic.Int64

	routeMu    sync.Mutex
	routeHists map[string]*stats.Histogram
}

func (m *routeMetrics) init(k int) {
	m.reqs = make([]atomic.Int64, k)
	m.errs = make([]atomic.Int64, k)
	m.unreachable = make([]atomic.Int64, k)
	m.groupHists = make([]*stats.Histogram, k)
	for i := range m.groupHists {
		m.groupHists[i] = stats.NewHistogram(routeLatLoUs, routeLatHiUs, routeLatBuckets)
	}
	m.fanoutHist = stats.NewHistogram(0, fanoutMax, fanoutMax)
	m.routeHists = make(map[string]*stats.Histogram)
}

// observe records one per-group request: count, latency, error class.
func (m *routeMetrics) observe(g int, start time.Time, err error) {
	m.reqs[g].Add(1)
	if err != nil {
		m.errs[g].Add(1)
		if errors.Is(err, client.ErrUnreachable) {
			m.unreachable[g].Add(1)
		}
	}
	lat := float64(time.Since(start).Nanoseconds()) / 1e3
	m.histMu.Lock()
	m.groupHists[g].Add(lat)
	m.histMu.Unlock()
}

// fanout records how many groups one batch touched.
func (m *routeMetrics) fanout(width int) {
	m.histMu.Lock()
	m.fanoutHist.Add(float64(width))
	m.histMu.Unlock()
}

// observeRoute records one HTTP request's duration on the router mux.
func (m *routeMetrics) observeRoute(route string, d time.Duration) {
	m.routeMu.Lock()
	h, ok := m.routeHists[route]
	if !ok {
		h = stats.NewHistogram(routeLatLoUs, routeLatHiUs, routeLatBuckets)
		m.routeHists[route] = h
	}
	h.Add(float64(d.Nanoseconds()) / 1e3)
	m.routeMu.Unlock()
}

// RegisterMetrics exposes the router's hrtd_route_* families on a registry
// (typically the query Server's, so one /metrics scrape covers the whole
// routed process).
func (r *Router) RegisterMetrics(reg *serve.Registry) {
	m := &r.m
	perGroup := func(vals []atomic.Int64) func() []serve.Sample {
		return func() []serve.Sample {
			out := make([]serve.Sample, len(vals))
			for g := range vals {
				out[g] = serve.Sample{
					Labels: []serve.Label{{Key: "group", Value: fmt.Sprint(g)}},
					Value:  float64(vals[g].Load()),
				}
			}
			return out
		}
	}
	reg.Gauge("hrtd_route_groups", "Number of shard groups behind the router.",
		func() float64 { return float64(len(r.groups)) })
	reg.CounterVec("hrtd_route_requests_total", "Requests fanned to each shard group.",
		perGroup(m.reqs))
	reg.CounterVec("hrtd_route_errors_total", "Failed requests per shard group.",
		perGroup(m.errs))
	reg.CounterVec("hrtd_route_unreachable_total",
		"Requests that failed because the shard group was unreachable.",
		perGroup(m.unreachable))
	reg.Counter("hrtd_route_placed_total", "Placements committed through the router.",
		func() float64 { return float64(m.placed.Load()) })
	reg.Counter("hrtd_route_migrations_total", "Cross-shard migrations committed.",
		func() float64 { return float64(m.migrations.Load()) })
	reg.Counter("hrtd_route_migration_failures_total",
		"Cross-shard migrations attempted but not committed.",
		func() float64 { return float64(m.migrationFails.Load()) })
	reg.Histogram("hrtd_route_group_latency_us",
		"Per-group request latency through the router, microseconds.",
		func() []serve.HistSample {
			m.histMu.Lock()
			defer m.histMu.Unlock()
			out := make([]serve.HistSample, len(m.groupHists))
			for g, h := range m.groupHists {
				out[g] = serve.HistSample{
					Labels: []serve.Label{{Key: "group", Value: fmt.Sprint(g)}},
					H:      h.Clone(),
				}
			}
			return out
		})
	reg.Histogram("hrtd_route_fanout_width",
		"Shard groups touched per routed batch.",
		func() []serve.HistSample {
			m.histMu.Lock()
			defer m.histMu.Unlock()
			return []serve.HistSample{{H: m.fanoutHist.Clone()}}
		})
	reg.Histogram("hrtd_route_http_duration_us",
		"Router mux request duration per route, microseconds.",
		func() []serve.HistSample {
			m.routeMu.Lock()
			defer m.routeMu.Unlock()
			names := make([]string, 0, len(m.routeHists))
			for name := range m.routeHists {
				names = append(names, name)
			}
			sort.Strings(names)
			out := make([]serve.HistSample, 0, len(names))
			for _, name := range names {
				out = append(out, serve.HistSample{
					Labels: []serve.Label{{Key: "route", Value: name}},
					H:      m.routeHists[name].Clone(),
				})
			}
			return out
		})
}
