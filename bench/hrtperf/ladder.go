package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"hrtsched/internal/durable"
	"hrtsched/internal/plan"
	"hrtsched/internal/serve"
	"hrtsched/internal/wal"
	"hrtsched/internal/whatif"
)

// spanCap bounds the spans one rung keeps for the result file; the
// quantiles use every call.
const spanCap = 1000

// walSegmentHeader is the size of a WAL segment's header (magic and base
// LSN), which wal.Stats.Bytes counts once per segment.
const walSegmentHeader = 16

// span is one timed call into a layer, in microseconds from the start of
// its workload's ladder.
type span struct {
	Rung    string  `json:"rung"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
}

// ladder times calls into one workload's layers, from the benchmark's own
// code around each layer's public functions: nothing outside bench/ is
// instrumented. Rungs run one after another, each on its own share of
// budget, so a layer's self time is its rung minus the rung below it.
type ladder struct {
	budget time.Duration
	dir    string // working directory for WAL and cluster state
	set    func(name string, v float64)
	origin time.Time
	calls  int64
	spans  []span
}

// sink keeps timed calls' results reachable so none is optimised away.
var sink any

// rung times calls into one layer until share has elapsed. prep builds a
// call's inputs outside the span and returns the call to time. A non-empty
// allocs names the stem under which the heap allocations made during the
// timed calls are reported, per call.
func (l *ladder) rung(name string, share time.Duration, allocs string, prep func(i int) func() error) error {
	var durs []float64
	var before, after runtime.MemStats
	var mallocs, allocBytes uint64
	deadline := time.Now().Add(share)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		f := prep(i)
		if allocs != "" {
			runtime.ReadMemStats(&before)
		}
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		if allocs != "" {
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
			allocBytes += after.TotalAlloc - before.TotalAlloc
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		us := float64(d.Nanoseconds()) / 1e3
		durs = append(durs, us)
		if i < spanCap {
			l.spans = append(l.spans, span{name, float64(t0.Sub(l.origin).Nanoseconds()) / 1e3, us})
		}
	}
	l.calls += int64(len(durs))
	slices.Sort(durs)
	l.set(name+"_p50_us", quantile(durs, 0.5))
	l.set(name+"_p99_us", quantile(durs, 0.99))
	if allocs != "" {
		n := float64(len(durs))
		l.set(allocs+"_allocs_per_op", float64(mallocs)/n)
		l.set(allocs+"_bytes_per_op", float64(allocBytes)/n)
	}
	return nil
}

func failWith(err error) func() error { return func() error { return err } }

// exchange sends one prepared call and returns its status and body.
type exchange func() (int, []byte, error)

// callRung times a workload stream's latency-series calls through prepare,
// which builds a call's request outside the span. The stream's other calls
// (fleet-batch removes) are sent between spans, and every reply is checked
// between spans too.
func (l *ladder) callRung(name string, share time.Duration, allocs string, next func() call, prepare func(call) exchange) error {
	var check func() error
	err := l.rung(name, share, allocs, func(int) func() error {
		if check != nil {
			if err := check(); err != nil {
				return failWith(err)
			}
			check = nil
		}
		c := next()
		for c.series != latencySeries {
			status, body, err := prepare(c)()
			if err == nil {
				err = c.check(status, body)
			}
			if err != nil {
				return failWith(err)
			}
			c = next()
		}
		ex := prepare(c)
		return func() error {
			status, body, err := ex()
			if err == nil {
				check = func() error { return c.check(status, body) }
			}
			return err
		}
	})
	if err == nil && check != nil {
		err = check()
	}
	return err
}

// viaHandler prepares calls against a handler through a response recorder:
// the handler's own cost, without sockets.
func viaHandler(h http.Handler) func(call) exchange {
	return func(c call) exchange {
		req := httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(c.body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		return func() (int, []byte, error) {
			h.ServeHTTP(rec, req)
			return rec.Code, rec.Body.Bytes(), nil
		}
	}
}

// roundTrip times the top rung: the stream's calls over a loopback socket
// to the in-process stack.
func (l *ladder) roundTrip(ctx context.Context, share time.Duration, h http.Handler, next func() call) error {
	ts := httptest.NewServer(h)
	defer ts.Close()
	client := newClient()
	defer client.CloseIdleConnections()
	return l.callRung("http.roundtrip", share, "", next, func(c call) exchange {
		return func() (int, []byte, error) { return post(ctx, client, ts.URL+c.path, c.body) }
	})
}

func frac(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// ---- admit-query ----------------------------------------------------------

func layersAdmitQuery(p socketPhase, set func(string, float64)) {
	set("serve.cache_hit_frac", frac(p.d.sums["hrtd_cache_hits_total"], p.d.sums["hrtd_cache_misses_total"]))
	set("serve.requests_per_batch", p.d.ratio("hrtd_requests_total", "hrtd_batches_total"))
	q50 := p.d.histQuantile("hrtd_latency_us", 0.5)
	set("serve.query_p50_us", q50)
	set("serve.query_p99_us", p.d.histQuantile("hrtd_latency_us", 0.99))
	set("http.query_overhead_p50_us", median(latencies(p.t.done, latencySeries))-q50)
	set("client.cpu_us_per_op", p.clientCPUPerOp())
}

// ladderAdmitQuery: plan.Analyze on the unique (miss) sets, a plan.Memo
// hit on the pool, Server.AnalyzeContext, the /v1/analyze handler, and a
// loopback round trip, each on the workload's own query stream.
func ladderAdmitQuery(ctx context.Context, l *ladder, seed uint64) error {
	q := newAdmitQuery(seed)
	s := q.streams[0]
	rng := newRand(seed, 500)
	share := l.budget / 5
	if err := l.rung("plan.analyze", share, "", func(int) func() error {
		set := uniqueSet(rng)
		return func() error { sink = plan.Analyze(spec, set); return nil }
	}); err != nil {
		return err
	}

	memo := plan.NewMemo(spec, admitPoolSize)
	for _, it := range q.pool {
		memo.Analyze(it.set)
	}
	if err := l.rung("plan.memo_hit", share, "", func(int) func() error {
		it := &q.pool[rng.IntN(len(q.pool))]
		return func() error {
			if v := memo.Analyze(it.set); v.Digest != it.want.Digest {
				return fmt.Errorf("memo answered digest %d, want %d", v.Digest, it.want.Digest)
			}
			return nil
		}
	}); err != nil {
		return err
	}

	st, err := newStack(queryDaemon, l.dir)
	if err != nil {
		return err
	}
	defer st.close()
	if err := l.rung("serve.analyze_call", share, "", func(int) func() error {
		set, _, _ := s.nextSet()
		return func() error {
			_, _, err := st.srv.AnalyzeContext(ctx, set)
			return err
		}
	}); err != nil {
		return err
	}
	if err := l.callRung("http.handler", share, "http.handler", s.next, viaHandler(st.handler)); err != nil {
		return err
	}
	return l.roundTrip(ctx, share, st.handler, s.next)
}

// ---- place-durable --------------------------------------------------------

func layersPlaceDurable(p socketPhase, set func(string, float64)) {
	set("wal.records_per_fsync", p.d.ratio("hrtd_wal_records_total", "hrtd_wal_fsyncs_total"))
	set("wal.fsync_p50_us", p.d.histQuantile("hrtd_wal_fsync_latency_us", 0.5))
	set("wal.fsync_p99_us", p.d.histQuantile("hrtd_wal_fsync_latency_us", 0.99))
	set("plan.incremental_frac", frac(p.d.sums["hrtd_cluster_incremental_ops_total"], p.d.sums["hrtd_cluster_full_analyses_total"]))
	set("durable.recovery_s", p.recovery.Seconds())
	set("client.cpu_us_per_op", p.clientCPUPerOp())
}

// ladderPlaceDurable: durable.Record.Encode, a one-record WAL group commit
// (AppendBatch + Ticket.Wait, fsync included), Incremental.TryGang and
// RemoveGang on a 2-set node, durable Cluster.Place/Remove, the cluster
// handler, and a loopback round trip, all on the workload's ring streams.
func ladderPlaceDurable(ctx context.Context, l *ladder, seed uint64) error {
	share := l.budget / 6
	recs := newRingStream(seed, 0, durableRing)
	node := 0
	record := func() durable.Record {
		m := recs.nextOp()
		node = (node + 1) % 4
		if m.remove {
			return durable.Record{Kind: durable.KindRemove, Node: node, ID: m.id}
		}
		return durable.Record{Kind: durable.KindPlace, Node: node, ID: m.id, Tasks: m.set}
	}
	if err := l.rung("durable.encode", share, "", func(int) func() error {
		rec := record()
		return func() error {
			b, err := rec.Encode()
			sink = b
			return err
		}
	}); err != nil {
		return err
	}

	log, _, err := wal.Open(wal.Options{Dir: filepath.Join(l.dir, "wal")})
	if err != nil {
		return err
	}
	defer log.Close()
	if err := l.rung("wal.commit", share, "", func(int) func() error {
		payload, err := record().Encode()
		if err != nil {
			return failWith(err)
		}
		return func() error {
			t, err := log.AppendBatch([][]byte{payload})
			if err != nil {
				return err
			}
			return t.Wait()
		}
	}); err != nil {
		return err
	}
	ws := log.Stats()
	l.set("wal.bytes_per_record", float64(ws.Bytes-walSegmentHeader*int64(ws.Segments))/float64(ws.Appends))

	// Two live sets per engine, as on the daemon's nodes.
	inc := plan.NewIncremental(spec)
	engine := newRingStream(seed, 0, 2)
	if err := l.rung("plan.try_gang", share, "", func(int) func() error {
		m := engine.nextOp()
		if m.remove {
			return func() error {
				if _, ok := inc.RemoveGang(m.set); !ok {
					return fmt.Errorf("remove %s: not committed", m.id)
				}
				return nil
			}
		}
		return func() error {
			if v := inc.TryGang(m.set); !v.Admit {
				return fmt.Errorf("place %s rejected: %s", m.id, v.Reason)
			}
			return nil
		}
	}); err != nil {
		return err
	}

	st, err := newStack(durableDaemon, filepath.Join(l.dir, "cluster"))
	if err != nil {
		return err
	}
	defer st.close()
	c := st.clusters[0]
	p := newPlaceDurable(seed)
	turn := 0
	// next interleaves the two connections' streams, as the daemon sees them.
	next := func() *ringStream { turn++; return p.streams[turn%conns] }
	if err := l.rung("serve.mutation_call", share, "", func(int) func() error {
		m := next().nextOp()
		if m.remove {
			return func() error {
				_, err := c.Remove(ctx, m.id)
				return err
			}
		}
		return func() error {
			res, err := c.Place(ctx, m.id, m.set)
			if err == nil && !res.Placed {
				err = fmt.Errorf("place %s rejected", m.id)
			}
			return err
		}
	}); err != nil {
		return err
	}
	nextCall := func() call { return next().next() }
	if err := l.callRung("http.handler", share, "", nextCall, viaHandler(st.handler)); err != nil {
		return err
	}
	return l.roundTrip(ctx, share, st.handler, nextCall)
}

// ---- fleet-batch ----------------------------------------------------------

func layersFleetBatch(p socketPhase, set func(string, float64)) {
	set("plan.incremental_frac", frac(p.d.sums["hrtd_cluster_incremental_ops_total"], p.d.sums["hrtd_cluster_full_analyses_total"]))
	set("route.fanout_width_mean", p.d.histMeanLower("hrtd_route_fanout_width"))
	set("route.group_p50_us", p.d.histQuantile("hrtd_route_group_latency_us", 0.5))
	set("route.group_p99_us", p.d.histQuantile("hrtd_route_group_latency_us", 0.99))
	set("serve.remove_p50_us", median(latencies(p.t.done, removeSeries)))
	set("client.cpu_us_per_op", p.clientCPUPerOp())
}

// batchItems pairs ids and sets into batch items.
func batchItems(ids []string, sets []plan.TaskSet) []serve.BatchPlaceItem {
	items := make([]serve.BatchPlaceItem, len(ids))
	for i := range ids {
		items[i] = serve.BatchPlaceItem{ID: ids[i], Tasks: sets[i]}
	}
	return items
}

func allPlaced(res []serve.BatchPlaceResult) error {
	for _, r := range res {
		if r.Err != nil {
			return fmt.Errorf("item %s: %w", r.ID, r.Err)
		}
		if !r.Result.Placed {
			return fmt.Errorf("item %s not placed", r.ID)
		}
	}
	return nil
}

// ladderFleetBatch: Incremental.TryGangBatch of 16 gangs on a 384-set
// node, Cluster.PlaceBatch of 16 items on one 2-node group (~768 sets),
// Router.PlaceBatch of a 64-item envelope over the 4 local groups, and a
// loopback round trip, against the prefilled in-process fleet.
func ladderFleetBatch(ctx context.Context, l *ladder, seed uint64) error {
	const perGroup = fleetBatchItems / 4
	share := l.budget / 4
	rng := newRand(seed, 600)
	committed := make(plan.TaskSet, 0, fleetPrefill/8)
	for range cap(committed) {
		committed = append(committed, tinySet(rng)...)
	}
	inc := plan.NewIncremental(spec)
	if v := inc.Restore(committed); !v.Admit {
		return fmt.Errorf("a node's worth of fleet sets is rejected: %s", v.Reason)
	}
	if err := l.rung("plan.try_gang_batch", share, "", func(int) func() error {
		gangs := make([]plan.TaskSet, perGroup)
		for i := range gangs {
			gangs[i] = tinySet(rng)
		}
		return func() error {
			for i, v := range inc.TryGangBatch(gangs) {
				if !v.Admit {
					return fmt.Errorf("gang %d rejected: %s", i, v.Reason)
				}
			}
			return nil
		}
	}); err != nil {
		return err
	}

	f := newFleetBatch(seed)
	st, err := newStack(fleetDaemon, l.dir)
	if err != nil {
		return err
	}
	defer st.close()
	ts := httptest.NewServer(st.handler)
	h := newClient()
	err = f.prefill(ctx, h, ts.URL)
	h.CloseIdleConnections()
	ts.Close()
	if err != nil {
		return err
	}

	// placeRemove times batch placement through place, removing the
	// previous batch between spans so the fleet stays at its prefill.
	placeRemove := func(name, allocs string, bs *batchStream, n int,
		place func([]serve.BatchPlaceItem) []serve.BatchPlaceResult,
		remove func(id string) error) error {
		var placed []string
		return l.rung(name, share, allocs, func(int) func() error {
			for _, id := range placed {
				if err := remove(id); err != nil {
					return failWith(err)
				}
			}
			ids, sets := bs.nextBatch(n)
			items := batchItems(ids, sets)
			placed = ids
			return func() error { return allPlaced(place(items)) }
		})
	}
	c := st.clusters[0]
	if err := placeRemove("serve.place_batch_call", "", newBatchStream(seed, 8), perGroup,
		func(items []serve.BatchPlaceItem) []serve.BatchPlaceResult { return c.PlaceBatch(ctx, items) },
		func(id string) error { _, err := c.Remove(ctx, id); return err }); err != nil {
		return err
	}
	if err := placeRemove("route.place_batch_call", "route.place_batch", newBatchStream(seed, 9), fleetBatchItems,
		func(items []serve.BatchPlaceItem) []serve.BatchPlaceResult {
			return st.router.PlaceBatch(ctx, items).Results
		},
		func(id string) error { _, _, err := st.router.Remove(ctx, id); return err }); err != nil {
		return err
	}
	return l.roundTrip(ctx, share, st.handler, f.streams[0].next)
}

// ---- whatif-simulate -------------------------------------------------------

func layersWhatif(p socketPhase, set func(string, float64)) {
	set("whatif.run_p50_us", p.d.histQuantile("hrtd_whatif_run_duration_us", 0.5))
	set("whatif.run_p99_us", p.d.histQuantile("hrtd_whatif_run_duration_us", 0.99))
	set("whatif.replications_per_s", p.d.sums["hrtd_whatif_replications_total"]/p.elapsed.Seconds())
	set("sim.engine_steps_per_s", float64(p.t.work)/p.elapsed.Seconds())
	set("client.cpu_us_per_op", p.clientCPUPerOp())
}

// ladderWhatif: whatif.Run, Server.Simulate (the worker pool hop), and a
// loopback round trip, over the workload's 8 scenario bodies.
func ladderWhatif(ctx context.Context, l *ladder, seed uint64) error {
	s := newWhatifSim(seed)
	share := l.budget / 3
	if err := l.rung("whatif.run_call", share, "whatif.run", func(i int) func() error {
		req, want := s.reqs[i%whatifBodies], s.steps[i%whatifBodies]
		return func() error {
			rep, err := whatif.Run(req.Scenario, req.Seed)
			if err == nil && rep.EngineSteps != want {
				err = fmt.Errorf("%d engine steps, want %d", rep.EngineSteps, want)
			}
			return err
		}
	}); err != nil {
		return err
	}
	st, err := newStack(queryDaemon, l.dir)
	if err != nil {
		return err
	}
	defer st.close()
	if err := l.rung("serve.simulate_call", share, "", func(i int) func() error {
		req, want := s.reqs[i%whatifBodies], s.steps[i%whatifBodies]
		return func() error {
			rep, err := st.srv.Simulate(ctx, req)
			if err == nil && rep.EngineSteps != want {
				err = fmt.Errorf("%d engine steps, want %d", rep.EngineSteps, want)
			}
			return err
		}
	}); err != nil {
		return err
	}
	return l.roundTrip(ctx, share, st.handler, s.streams[0].next)
}
