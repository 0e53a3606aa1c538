// Command hrtload is a closed-loop load generator for hrtd with six modes.
//
// In -mode query (the default) N connections each fire admission queries
// back-to-back for a fixed duration, mixing repeated task sets (drawn
// from a popular pool, exercising the shard cache) with unique ones
// (forcing fresh analyses), then report throughput, latency quantiles,
// error counts, and the server-side cache hit rate scraped from /metrics.
//
// In -mode cluster the connections drive the stateful placement session
// instead: each worker keeps a small ring of live placements, evicting
// its oldest set to make room before placing a fresh one, so the cluster
// churns through admissions and removals for the whole run. The report
// adds placement/rejection counts and the scraped
// hrtd_cluster_placed_total.
//
// In -mode dag the workers drive /v1/dag/place instead: each submits
// randomized small DAG tasks (3-6 nodes, forward edges, mixed analyzers)
// through the response-time-analysis admission path, cycling a ring of
// live reservations exactly like cluster mode. The report adds the
// scraped hrtd_dag_placed_total.
//
// In -mode batch the workers drive /v1/cluster/place-batch: each places
// -live gangs per POST in one batched envelope, checks every per-item
// verdict, then removes them and goes again — the closed-loop shape of
// cluster mode with the round trips amortized across the batch. The
// report counts each envelope item as a placement.
//
// In -mode status a single GET of /v1/cluster/status is printed as one
// greppable line (placements, per-counter totals, DAG reservations,
// durability health, replication role) — the probe the recovery,
// failover, and dag smoke tests diff across a kill -9.
//
// In -mode simulate the workers drive POST /v1/simulate closed-loop with
// a small pool of precomputed what-if scenarios. Because every scenario
// body carries its own seed, repeated submissions of the same body must
// answer byte-identically; any divergence counts as a determinism
// mismatch and fails -check. 429 sheds back off for Retry-After like
// every other mode, and the report scrapes the server's hrtd_whatif_*
// counters. A reply whose engine_steps is 0 simulated nothing — every
// body's horizon covers at least one arrival — and also fails -check.
//
// Every mode speaks /v1 through internal/client, so against a replicated
// hrtd the generator is failover-aware: mutations sent to a follower
// follow its 307 redirect to the leader (counted and reported), and
// 429/503 responses back off for the server's Retry-After with jitter
// instead of hammering a cluster that is mid-election.
//
// Usage:
//
//	hrtload -addr 127.0.0.1:8080 -dur 2s -conns 16 -repeat 0.9
//	hrtload -addr $(cat /tmp/hrtd.addr) -dur 2s -check     # exit 1 on failure
//	hrtload -addr $(cat /tmp/hrtd.addr) -mode cluster -check
//	hrtload -addr $(cat /tmp/hrtd.addr) -mode simulate -check
//	hrtload -addr $(cat /tmp/hrtd.addr) -mode status -check
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hrtsched/internal/client"
	"hrtsched/internal/serve"
	"hrtsched/internal/sim"
	"hrtsched/internal/stats"
)

// periodMenuUs are the popular-pool periods; all divide 1 ms so pool sets
// keep small hyperperiods and analyses stay cheap.
var periodMenuUs = []int64{100, 200, 250, 500, 1000}

type workerResult struct {
	requests  int64
	errors    int64 // transport failures and unexpected statuses
	sheds     int64 // 429/503 backpressure responses (each backs off)
	cacheHits int64 // X-Hrtd-Cache: hit (query mode)
	placed    int64 // admitted placements (cluster, batch and dag modes)
	rejected  int64 // placements every node refused (cluster, batch and dag modes)
	// mismatches counts simulate-mode replies that diverged from the
	// first-seen reply for the same request body: determinism violations.
	mismatches int64
	// emptySims counts simulate-mode replies reporting zero engine steps.
	emptySims int64
	latencyUs []float64
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, drives one load run, and returns the exit code: 0 on
// success, 1 when -check fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hrtload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr   = fs.String("addr", "", "hrtd address host:port (required)")
		mode   = fs.String("mode", "query", "load shape: query, cluster, batch, dag, simulate, or status")
		dur    = fs.Duration("dur", 2*time.Second, "how long to generate load")
		conns  = fs.Int("conns", 16, "concurrent closed-loop connections")
		pool   = fs.Int("pool", 64, "popular task-set pool size (query mode)")
		repeat = fs.Float64("repeat", 0.9, "fraction of queries drawn from the pool in [0,1]")
		live   = fs.Int("live", 4, "live placements each worker cycles through (cluster, dag) or places per batch (batch)")
		seed   = fs.Uint64("seed", 11, "random seed")
		check  = fs.Bool("check", false, "exit 1 on any hard error or a dead cache/cluster")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "hrtload: "+format+"\n", args...)
		fs.Usage()
		return 2
	}
	switch {
	case fs.NArg() > 0:
		return usage("unexpected arguments: %v", fs.Args())
	case *addr == "":
		return usage("-addr is required")
	case *dur <= 0:
		return usage("-dur must be positive (got %v)", *dur)
	case *conns <= 0:
		return usage("-conns must be positive (got %d)", *conns)
	case *pool <= 0:
		return usage("-pool must be positive (got %d)", *pool)
	case *repeat < 0 || *repeat > 1:
		return usage("-repeat must be in [0,1] (got %g)", *repeat)
	case *live <= 0:
		return usage("-live must be positive (got %d)", *live)
	}

	c := client.New("http://"+*addr, 5*time.Second, *conns*2)
	if *mode == "status" {
		if err := printStatus(stdout, c); err != nil {
			fmt.Fprintf(stderr, "hrtload: status: %v\n", err)
			if *check {
				return 1
			}
		}
		return 0
	}

	rng := sim.NewRand(*seed)
	deadline := time.Now().Add(*dur)
	var uniqueCtr atomic.Int64
	var work func(w int, res *workerResult, rng *sim.Rand)
	switch *mode {
	case "query":
		// Popular pool: small sets over the period menu, slices 10-30% of
		// the period — admissible alone, cheap to simulate, all distinct.
		poolBodies := make([][]byte, *pool)
		for i := range poolBodies {
			poolBodies[i] = poolBody(rng, i)
		}
		work = func(_ int, res *workerResult, rng *sim.Rand) {
			for time.Now().Before(deadline) {
				var body []byte
				if rng.Float64() < *repeat {
					body = poolBodies[rng.Intn(len(poolBodies))]
				} else {
					// Unique single-task set: the counter makes the slice, and
					// so the canonical digest, never repeat.
					n := uniqueCtr.Add(1)
					body = fmt.Appendf(nil, `{"tasks":[{"period_ns":1000000,"slice_ns":%d}]}`, 1_000+n)
				}
				var reply client.Raw
				if res.send(c, "/v1/analyze", body, &reply, rng) && reply.Header.Get("X-Hrtd-Cache") == "hit" {
					res.cacheHits++
				}
			}
		}
	case "cluster":
		// The pid keeps ids unique across hrtload runs: against a durable
		// cluster a second run would otherwise collide with the previous
		// run's surviving placements and take 409s.
		work = func(w int, res *workerResult, rng *sim.Rand) {
			res.ring(c, deadline, *live, rng, "/v1/cluster/place", func() (string, []byte) {
				id := fmt.Sprintf("w%d-%d-%d", w, os.Getpid(), uniqueCtr.Add(1))
				return id, placeBody(nil, id, rng)
			})
		}
	case "dag":
		// Randomized small DAGs go in through /v1/dag/place and come back
		// out through /v1/cluster/remove: an admitted DAG is an ordinary
		// placement.
		work = func(w int, res *workerResult, rng *sim.Rand) {
			res.ring(c, deadline, *live, rng, "/v1/dag/place", func() (string, []byte) {
				id := fmt.Sprintf("dag-w%d-%d-%d", w, os.Getpid(), uniqueCtr.Add(1))
				return id, fmt.Appendf(nil, `{"id":%q,"task":%s,"analyzer":%q}`,
					id, dagBody(rng), dagAnalyzers[rng.Intn(len(dagAnalyzers))])
			})
		}
	case "batch":
		// Place -live gangs in one /v1/cluster/place-batch POST, check
		// every per-item verdict, remove them, repeat. Each admitted item
		// counts as one placement; a per-item error envelope is a hard
		// error (ids are unique, so a healthy server never produces one).
		work = func(w int, res *workerResult, rng *sim.Rand) {
			for time.Now().Before(deadline) {
				body := []byte(`{"items":[`)
				for i := 0; i < *live; i++ {
					if i > 0 {
						body = append(body, ',')
					}
					body = placeBody(body, fmt.Sprintf("bw%d-%d-%d", w, os.Getpid(), uniqueCtr.Add(1)), rng)
				}
				body = append(body, "]}"...)
				var reply struct {
					Items []serve.PlaceBatchEntry `json:"items"`
				}
				var placed []string
				switch {
				case !res.send(c, "/v1/cluster/place-batch", body, &reply, rng):
				case len(reply.Items) != *live:
					res.errors++
				default:
					for _, it := range reply.Items {
						switch {
						case it.Error != nil:
							res.errors++
						case it.Result != nil && it.Result.Placed:
							res.placed++
							placed = append(placed, it.ID)
						default:
							res.rejected++
						}
					}
				}
				for _, id := range placed {
					res.remove(c, id, rng)
				}
			}
		}
	case "simulate":
		// A small shared pool of scenario bodies: every worker re-submits
		// bodies its peers have run, so the byte-identity check exercises
		// cross-worker (and, routed, cross-group) determinism. The first
		// reply for each body is published to seen; every later reply
		// must match it byte for byte.
		simBodies := make([][]byte, 8)
		for i := range simBodies {
			simBodies[i] = simBody(rng, i)
		}
		var seen sync.Map // body index -> first-seen reply
		work = func(_ int, res *workerResult, rng *sim.Rand) {
			for time.Now().Before(deadline) {
				i := rng.Intn(len(simBodies))
				var reply client.Raw
				if !res.send(c, "/v1/simulate", simBodies[i], &reply, rng) {
					continue
				}
				if prev, loaded := seen.LoadOrStore(i, reply.Body); loaded && !bytes.Equal(prev.([]byte), reply.Body) {
					res.mismatches++
				}
				var rep struct {
					EngineSteps uint64 `json:"engine_steps"`
				}
				if json.Unmarshal(reply.Body, &rep) != nil || rep.EngineSteps == 0 {
					res.emptySims++
				}
			}
		}
	default:
		return usage("-mode must be query, cluster, batch, dag, simulate, or status (got %q)", *mode)
	}
	results := make([]workerResult, *conns)
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func(w int, rng *sim.Rand) {
			defer wg.Done()
			work(w, &results[w], rng)
		}(w, rng.Split())
	}
	wg.Wait()

	var total workerResult
	for i := range results {
		total.requests += results[i].requests
		total.errors += results[i].errors
		total.sheds += results[i].sheds
		total.cacheHits += results[i].cacheHits
		total.placed += results[i].placed
		total.rejected += results[i].rejected
		total.mismatches += results[i].mismatches
		total.emptySims += results[i].emptySims
		total.latencyUs = append(total.latencyUs, results[i].latencyUs...)
	}
	ok := int64(len(total.latencyUs))
	qps := float64(ok) / dur.Seconds()
	fmt.Fprintf(stdout, "hrtload: %d requests in %v (%d ok, %d shed, %d errors)\n",
		total.requests, *dur, ok, total.sheds, total.errors)
	if n := c.Redirects(); n > 0 {
		fmt.Fprintf(stdout, "hrtload: %d leader redirects followed\n", n)
	}
	fmt.Fprintf(stdout, "hrtload: %.0f queries/s\n", qps)
	if ok > 0 {
		fmt.Fprintf(stdout, "hrtload: latency us p50=%.0f p95=%.0f p99=%.0f\n",
			stats.Quantile(total.latencyUs, 0.5),
			stats.Quantile(total.latencyUs, 0.95),
			stats.Quantile(total.latencyUs, 0.99))
	}

	metrics, err := scrapeMetrics(c)
	if err != nil {
		fmt.Fprintf(stderr, "hrtload: scrape /metrics: %v\n", err)
	}
	var fail string // why -check fails, if it does
	switch *mode {
	case "query":
		if ok > 0 {
			fmt.Fprintf(stdout, "hrtload: client-observed cache hits %d/%d (%.1f%%)\n",
				total.cacheHits, ok, 100*float64(total.cacheHits)/float64(ok))
		}
		rate, found := metrics["hrtd_cache_hit_rate"]
		if found {
			fmt.Fprintf(stdout, "hrtload: server cache hit rate %.3f\n", rate)
		}
		switch {
		case ok == 0:
			fail = "no successful queries"
		case total.cacheHits == 0 || rate == 0:
			fail = "cache never hit"
		}
	case "simulate":
		fmt.Fprintf(stdout, "hrtload: %d simulations ok, %d determinism mismatches, %d empty simulations\n",
			ok, total.mismatches, total.emptySims)
		for _, m := range []string{"hrtd_whatif_requests_total", "hrtd_whatif_replications_total", "hrtd_whatif_shed_total"} {
			if v, found := metrics[m]; found {
				fmt.Fprintf(stdout, "hrtload: server %s %.0f\n", m, v)
			}
		}
		switch {
		case ok == 0:
			fail = "no successful simulations"
		case total.mismatches > 0:
			fail = fmt.Sprintf("%d determinism mismatches", total.mismatches)
		case total.emptySims > 0:
			fail = fmt.Sprintf("%d replies simulated no engine steps", total.emptySims)
		}
	default: // cluster, batch, dag
		fmt.Fprintf(stdout, "hrtload: %d placed, %d rejected\n", total.placed, total.rejected)
		placedMetric := "hrtd_cluster_placed_total"
		if *mode == "dag" {
			placedMetric = "hrtd_dag_placed_total"
		}
		serverPlaced, found := metrics[placedMetric]
		if !found {
			// A routed hrtd owns no cluster of its own: its placements
			// surface on the router-side counter instead.
			serverPlaced, found = metrics["hrtd_route_placed_total"]
		}
		if found {
			fmt.Fprintf(stdout, "hrtload: server placed total %.0f\n", serverPlaced)
		}
		if total.placed == 0 || serverPlaced == 0 {
			fail = "nothing placed"
		}
	}
	if total.errors > 0 {
		fail = fmt.Sprintf("%d hard errors", total.errors)
	}
	if !*check {
		return 0
	}
	if fail != "" {
		fmt.Fprintf(stderr, "hrtload: FAIL: %s\n", fail)
		return 1
	}
	fmt.Fprintln(stdout, "hrtload: OK")
	return 0
}

// send posts one load request and counts its outcome; a 2xx reply also
// records its latency and reports true.
func (res *workerResult) send(c *client.Client, path string, body []byte, out any, rng *sim.Rand) bool {
	start := time.Now()
	if !res.count(c.Post(context.Background(), path, body, out), rng) {
		return false
	}
	res.latencyUs = append(res.latencyUs, float64(time.Since(start).Nanoseconds())/1e3)
	return true
}

// count classifies one round trip and reports whether it succeeded. A
// 429/503 shed backs off for the server's Retry-After. A transport failure
// is a hard error paced 5-25 ms: a refused connection to a killed replica
// fails in microseconds, and a closed loop would otherwise record millions
// of errors while an election settles. Any other reply is a hard error.
func (res *workerResult) count(err error, rng *sim.Rand) bool {
	res.requests++
	switch {
	case err == nil:
		return true
	case client.Shed(err):
		res.sheds++
		time.Sleep(client.Backoff(err, rng))
	case errors.Is(err, client.ErrUnreachable):
		res.errors++
		time.Sleep(time.Duration(5+rng.Int63n(20)) * time.Millisecond)
	default:
		res.errors++
	}
	return false
}

// remove releases one placement; an id the server no longer holds (404)
// is not an error.
func (res *workerResult) remove(c *client.Client, id string, rng *sim.Rand) {
	err := c.Post(context.Background(), "/v1/cluster/remove", fmt.Appendf(nil, `{"id":%q}`, id), nil)
	if errors.Is(err, serve.ErrUnknownID) {
		err = nil
	}
	res.count(err, rng)
}

// ring churns live reservations until the deadline: once size of them are
// live it removes the oldest before posting the next fresh one to path,
// so admissions and removals interleave for the whole run.
func (res *workerResult) ring(c *client.Client, deadline time.Time, size int, rng *sim.Rand,
	path string, next func() (id string, body []byte)) {
	var live []string
	for time.Now().Before(deadline) {
		if len(live) >= size {
			res.remove(c, live[0], rng)
			live = live[1:]
		}
		id, body := next()
		var reply struct {
			Placed bool `json:"placed"`
		}
		switch {
		case !res.send(c, path, body, &reply, rng):
		case reply.Placed:
			res.placed++
			live = append(live, id)
		default:
			res.rejected++
		}
	}
}

// simModels are the execution models simulate mode cycles through.
var simModels = []string{"wcet", "full-random", "half-random", "random-0.6,1.1:normal"}

// simBody builds the i-th what-if scenario body: two rate-harmonic tasks
// on two CPUs, a model from the menu, a couple of replications over one
// hyperperiod — heavy enough to exercise the pool, light enough that a
// closed loop turns over fast. The seed is baked into the body, so the
// body fully determines the reply.
func simBody(rng *sim.Rand, i int) []byte {
	periodNs := periodMenuUs[rng.Intn(len(periodMenuUs))] * 1000
	s1 := periodNs/5 + rng.Int63n(periodNs/5)
	s2 := periodNs/10 + rng.Int63n(periodNs/10)
	model := simModels[i%len(simModels)]
	var faults string
	if i%2 == 0 {
		faults = `"faults":["smi-storm"],`
	}
	return fmt.Appendf(nil, `{"scenario":{"name":"load-%d","cpus":2,"tasks":[`+
		`{"period_ns":%d,"slice_ns":%d,"cpu":0},`+
		`{"period_ns":%d,"slice_ns":%d,"cpu":1}],`+
		`"model":%q,%s"replications":3},"seed":%d}`,
		i, periodNs, s1, periodNs, s2, model, faults, 1000+i)
}

// dagAnalyzers are the analyzer names dag mode cycles through.
var dagAnalyzers = []string{"classical", "alpha-beta"}

// dagBody builds one randomized DAG task: 3-6 nodes, forward-only edges
// (guaranteeing acyclicity), short WCETs against a 10-20 ms period so
// most submissions admit and the ring keeps cycling.
func dagBody(rng *sim.Rand) string {
	nodes := 3 + int(rng.Int63n(4))
	var b strings.Builder
	b.WriteString(`{"nodes":[`)
	for i := 0; i < nodes; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"wcet_ns":%d}`, (20+rng.Int63n(100))*1000)
	}
	b.WriteString(`],"edges":[`)
	edges := 0
	for i := 0; i < nodes; i++ {
		for j := i + 1; j < nodes; j++ {
			if rng.Float64() < 0.4 {
				if edges > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, `{"from":%d,"to":%d}`, i, j)
				edges++
			}
		}
	}
	periodNs := (10 + 10*rng.Int63n(2)) * 1_000_000
	cores := 2 + rng.Int63n(3)
	fmt.Fprintf(&b, `],"period_ns":%d,"cores":%d}`, periodNs, cores)
	return b.String()
}

// placeBody appends one placement of a single-task gang from the period
// menu, with a slice of 5-15% of its period.
func placeBody(b []byte, id string, rng *sim.Rand) []byte {
	periodNs := periodMenuUs[rng.Intn(len(periodMenuUs))] * 1000
	sliceNs := periodNs/20 + rng.Int63n(periodNs/10)
	return fmt.Appendf(b, `{"id":%q,"tasks":[{"period_ns":%d,"slice_ns":%d}]}`, id, periodNs, sliceNs)
}

// poolBody builds the i-th popular task set: 1-3 tasks from the period
// menu with slices well under the bound, serialized once up front so the
// hot loop only picks a body.
func poolBody(rng *sim.Rand, i int) []byte {
	b := []byte(`{"tasks":[`)
	for t := 0; t < 1+i%3; t++ {
		periodNs := periodMenuUs[rng.Intn(len(periodMenuUs))] * 1000
		sliceNs := periodNs/10 + rng.Int63n(periodNs/5)
		if t > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"period_ns":%d,"slice_ns":%d}`, periodNs, sliceNs)
	}
	return append(b, "]}"...)
}

// printStatus fetches /v1/cluster/status and prints one greppable line.
func printStatus(stdout io.Writer, c *client.Client) error {
	var st struct {
		serve.ClusterStatus
		// Groups/Reachable are only present in a routed (sharded) status
		// body; an unrouted cluster leaves them zero.
		Groups    int `json:"groups"`
		Reachable int `json:"reachable"`
	}
	if err := c.Get(context.Background(), "/v1/cluster/status", &st); err != nil {
		return err
	}
	var tasks int64
	for _, n := range st.Nodes {
		tasks += n.Tasks
	}
	line := fmt.Sprintf("hrtload: status placements=%d tasks=%d placed_total=%d removed_total=%d rebalanced_total=%d drained_total=%d",
		st.Placements, tasks, st.Placed, st.Removed, st.Rebalanced, st.Drained)
	if st.Groups > 0 {
		line += fmt.Sprintf(" groups=%d reachable=%d", st.Groups, st.Reachable)
	}
	if st.DAG != nil {
		line += fmt.Sprintf(" dag_placements=%d dag_placed_total=%d",
			st.DAG.Placements, st.DAG.Placed)
	}
	if st.Durability != nil {
		line += fmt.Sprintf(" durable=true last_lsn=%d degraded=%v",
			st.Durability.LastLSN, st.Durability.Degraded)
	}
	if st.Replication != nil {
		line += fmt.Sprintf(" role=%s term=%d leader=%d commit_lsn=%d applied_lsn=%d",
			st.Replication.Role, st.Replication.Term, st.Replication.Leader,
			st.Replication.CommitLSN, st.Replication.AppliedLSN)
	}
	fmt.Fprintln(stdout, line)
	return nil
}

// scrapeMetrics pulls /metrics and returns its unlabelled samples.
func scrapeMetrics(c *client.Client) (map[string]float64, error) {
	var page client.Raw
	if err := c.Get(context.Background(), "/metrics", &page); err != nil {
		return nil, err
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(string(page.Body), "\n") {
		name, v, _ := strings.Cut(line, " ")
		if f, err := strconv.ParseFloat(v, 64); err == nil && !strings.Contains(name, "{") {
			samples[name] = f
		}
	}
	return samples, nil
}
