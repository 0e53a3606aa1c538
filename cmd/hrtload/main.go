// Command hrtload is a closed-loop load generator for hrtd with two modes.
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
// Against a replicated hrtd the generator is failover-aware: mutations
// sent to a follower follow its 307 redirect to the leader (counted and
// reported), and 429/503 responses back off for the server's Retry-After
// with jitter instead of hammering a cluster that is mid-election.
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
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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
	placed    int64 // admitted placements (cluster mode)
	rejected  int64 // placements every node refused (cluster mode)
	// mismatches counts simulate-mode replies that diverged from the
	// first-seen reply for the same request body: determinism violations.
	mismatches int64
	// emptySims counts simulate-mode replies reporting zero engine steps.
	emptySims int64
	latencyUs []float64
}

// redirects counts 307 leader redirects the HTTP client followed —
// shared across workers because the redirect hook lives on the client.
var redirects atomic.Int64

func main() {
	var (
		addr   = flag.String("addr", "", "hrtd address host:port (required)")
		mode   = flag.String("mode", "query", "load shape: query, cluster, batch, dag, simulate, or status")
		dur    = flag.Duration("dur", 2*time.Second, "how long to generate load")
		conns  = flag.Int("conns", 16, "concurrent closed-loop connections")
		pool   = flag.Int("pool", 64, "popular task-set pool size (query mode)")
		repeat = flag.Float64("repeat", 0.9, "fraction of queries drawn from the pool in [0,1]")
		live   = flag.Int("live", 4, "live placements each worker cycles through (cluster mode)")
		seed   = flag.Uint64("seed", 11, "random seed")
		check  = flag.Bool("check", false, "exit 1 on any hard error or a dead cache/cluster")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "hrtload: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		fail("unexpected arguments: %v", flag.Args())
	}
	if *addr == "" {
		fail("-addr is required")
	}
	if *mode != "query" && *mode != "cluster" && *mode != "batch" && *mode != "dag" &&
		*mode != "simulate" && *mode != "status" {
		fail("-mode must be query, cluster, batch, dag, simulate, or status (got %q)", *mode)
	}
	if *dur <= 0 {
		fail("-dur must be positive (got %v)", *dur)
	}
	if *conns <= 0 {
		fail("-conns must be positive (got %d)", *conns)
	}
	if *pool <= 0 {
		fail("-pool must be positive (got %d)", *pool)
	}
	if *repeat < 0 || *repeat > 1 {
		fail("-repeat must be in [0,1] (got %g)", *repeat)
	}
	if *live <= 0 {
		fail("-live must be positive (got %d)", *live)
	}

	base := "http://" + *addr
	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        *conns * 2,
			MaxIdleConnsPerHost: *conns * 2,
		},
		Timeout: 5 * time.Second,
		// A follower answers mutations with 307 + Location: leader. The
		// standard client re-sends the body (GetBody is set for string
		// readers); the hook just counts the hops and keeps the cap.
		CheckRedirect: func(req *http.Request, via []*http.Request) error {
			if len(via) >= 5 {
				return fmt.Errorf("stopped after 5 redirects")
			}
			redirects.Add(1)
			return nil
		},
	}

	if *mode == "status" {
		if err := printStatus(client, base); err != nil {
			fmt.Fprintf(os.Stderr, "hrtload: status: %v\n", err)
			if *check {
				os.Exit(1)
			}
		}
		return
	}

	rng := sim.NewRand(*seed)
	deadline := time.Now().Add(*dur)
	results := make([]workerResult, *conns)
	var uniqueCtr atomic.Int64
	var wg sync.WaitGroup

	switch *mode {
	case "query":
		// Popular pool: small sets over the period menu, slices 10-30% of
		// the period — admissible alone, cheap to simulate, all distinct.
		poolBodies := make([]string, *pool)
		for i := range poolBodies {
			poolBodies[i] = poolBody(rng, i)
		}
		for w := 0; w < *conns; w++ {
			wg.Add(1)
			go func(res *workerResult, rng *sim.Rand) {
				defer wg.Done()
				queryWorker(client, base, deadline, poolBodies, *repeat, &uniqueCtr, res, rng)
			}(&results[w], rng.Split())
		}
	case "cluster":
		for w := 0; w < *conns; w++ {
			wg.Add(1)
			go func(w int, res *workerResult, rng *sim.Rand) {
				defer wg.Done()
				clusterWorker(client, base, deadline, w, *live, &uniqueCtr, res, rng)
			}(w, &results[w], rng.Split())
		}
	case "batch":
		for w := 0; w < *conns; w++ {
			wg.Add(1)
			go func(w int, res *workerResult, rng *sim.Rand) {
				defer wg.Done()
				batchWorker(client, base, deadline, w, *live, &uniqueCtr, res, rng)
			}(w, &results[w], rng.Split())
		}
	case "dag":
		for w := 0; w < *conns; w++ {
			wg.Add(1)
			go func(w int, res *workerResult, rng *sim.Rand) {
				defer wg.Done()
				dagWorker(client, base, deadline, w, *live, &uniqueCtr, res, rng)
			}(w, &results[w], rng.Split())
		}
	case "simulate":
		// A small shared pool of scenario bodies: every worker re-submits
		// bodies its peers have run, so the byte-identity check exercises
		// cross-worker (and, routed, cross-group) determinism.
		simBodies := make([]string, 8)
		for i := range simBodies {
			simBodies[i] = simBody(rng, i)
		}
		var seen sync.Map // body index -> first-seen reply
		for w := 0; w < *conns; w++ {
			wg.Add(1)
			go func(res *workerResult, rng *sim.Rand) {
				defer wg.Done()
				simulateWorker(client, base, deadline, simBodies, &seen, res, rng)
			}(&results[w], rng.Split())
		}
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
	fmt.Printf("hrtload: %d requests in %v (%d ok, %d shed, %d errors)\n",
		total.requests, *dur, ok, total.sheds, total.errors)
	if n := redirects.Load(); n > 0 {
		fmt.Printf("hrtload: %d leader redirects followed\n", n)
	}
	fmt.Printf("hrtload: %.0f queries/s\n", qps)
	if ok > 0 {
		fmt.Printf("hrtload: latency us p50=%.0f p95=%.0f p99=%.0f\n",
			stats.Quantile(total.latencyUs, 0.5),
			stats.Quantile(total.latencyUs, 0.95),
			stats.Quantile(total.latencyUs, 0.99))
	}

	switch *mode {
	case "query":
		if ok > 0 {
			fmt.Printf("hrtload: client-observed cache hits %d/%d (%.1f%%)\n",
				total.cacheHits, ok, 100*float64(total.cacheHits)/float64(ok))
		}
		serverHitRate, err := scrapeMetric(client, base, "hrtd_cache_hit_rate")
		if err != nil {
			fmt.Fprintf(os.Stderr, "hrtload: scrape /metrics: %v\n", err)
			if *check {
				os.Exit(1)
			}
		} else {
			fmt.Printf("hrtload: server cache hit rate %.3f\n", serverHitRate)
		}
		if *check {
			switch {
			case total.errors > 0:
				fmt.Fprintf(os.Stderr, "hrtload: FAIL: %d hard errors\n", total.errors)
				os.Exit(1)
			case ok == 0:
				fmt.Fprintln(os.Stderr, "hrtload: FAIL: no successful queries")
				os.Exit(1)
			case total.cacheHits == 0 || serverHitRate == 0:
				fmt.Fprintln(os.Stderr, "hrtload: FAIL: cache never hit")
				os.Exit(1)
			}
			fmt.Println("hrtload: OK")
		}
	case "simulate":
		fmt.Printf("hrtload: %d simulations ok, %d determinism mismatches, %d empty simulations\n",
			ok, total.mismatches, total.emptySims)
		for _, m := range []string{"hrtd_whatif_requests_total", "hrtd_whatif_replications_total", "hrtd_whatif_shed_total"} {
			if v, err := scrapeMetric(client, base, m); err == nil {
				fmt.Printf("hrtload: server %s %.0f\n", m, v)
			}
		}
		if *check {
			switch {
			case total.errors > 0:
				fmt.Fprintf(os.Stderr, "hrtload: FAIL: %d hard errors\n", total.errors)
				os.Exit(1)
			case ok == 0:
				fmt.Fprintln(os.Stderr, "hrtload: FAIL: no successful simulations")
				os.Exit(1)
			case total.mismatches > 0:
				fmt.Fprintf(os.Stderr, "hrtload: FAIL: %d determinism mismatches\n", total.mismatches)
				os.Exit(1)
			case total.emptySims > 0:
				fmt.Fprintf(os.Stderr, "hrtload: FAIL: %d replies simulated no engine steps\n", total.emptySims)
				os.Exit(1)
			}
			fmt.Println("hrtload: OK")
		}
	case "cluster", "batch", "dag":
		fmt.Printf("hrtload: %d placed, %d rejected\n", total.placed, total.rejected)
		placedMetric := "hrtd_cluster_placed_total"
		if *mode == "dag" {
			placedMetric = "hrtd_dag_placed_total"
		}
		serverPlaced, err := scrapeMetric(client, base, placedMetric)
		if err != nil {
			// A routed hrtd owns no cluster of its own: its placements
			// surface on the router-side counter instead.
			if v, rerr := scrapeMetric(client, base, "hrtd_route_placed_total"); rerr == nil {
				serverPlaced, err = v, nil
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hrtload: scrape /metrics: %v\n", err)
			if *check {
				os.Exit(1)
			}
		} else {
			fmt.Printf("hrtload: server placed total %.0f\n", serverPlaced)
		}
		if *check {
			switch {
			case total.errors > 0:
				fmt.Fprintf(os.Stderr, "hrtload: FAIL: %d hard errors\n", total.errors)
				os.Exit(1)
			case total.placed == 0 || serverPlaced == 0:
				fmt.Fprintln(os.Stderr, "hrtload: FAIL: nothing placed")
				os.Exit(1)
			}
			fmt.Println("hrtload: OK")
		}
	}
}

// queryWorker fires /v1/analyze queries back-to-back until the deadline.
func queryWorker(client *http.Client, base string, deadline time.Time,
	poolBodies []string, repeat float64, uniqueCtr *atomic.Int64,
	res *workerResult, rng *sim.Rand) {
	for time.Now().Before(deadline) {
		var body string
		if rng.Float64() < repeat {
			body = poolBodies[rng.Intn(len(poolBodies))]
		} else {
			// Unique single-task set: the counter makes the slice, and so
			// the canonical digest, never repeat.
			n := uniqueCtr.Add(1)
			body = fmt.Sprintf(`{"tasks":[{"period_ns":1000000,"slice_ns":%d}]}`, 1_000+n)
		}
		start := time.Now()
		resp, err := client.Post(base+"/v1/analyze", "application/json", strings.NewReader(body))
		lat := float64(time.Since(start).Nanoseconds()) / 1e3
		res.requests++
		if err != nil {
			res.errors++
			continue
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck — draining for keep-alive
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			res.latencyUs = append(res.latencyUs, lat)
			if resp.Header.Get("X-Hrtd-Cache") == "hit" {
				res.cacheHits++
			}
		case resp.StatusCode == http.StatusTooManyRequests,
			resp.StatusCode == http.StatusServiceUnavailable:
			res.sheds++
			time.Sleep(retryDelay(resp, rng))
		default:
			res.errors++
		}
	}
}

// clusterWorker churns the placement session: before each new placement
// it evicts its oldest live set once the ring is full, so admissions and
// removals interleave for the whole run.
func clusterWorker(client *http.Client, base string, deadline time.Time,
	w, ringSize int, uniqueCtr *atomic.Int64, res *workerResult, rng *sim.Rand) {
	var ring []string
	for time.Now().Before(deadline) {
		if len(ring) >= ringSize {
			id := ring[0]
			ring = ring[1:]
			body := fmt.Sprintf(`{"id":%q}`, id)
			resp, err := client.Post(base+"/v1/cluster/remove", "application/json", strings.NewReader(body))
			res.requests++
			if err != nil {
				res.errors++
				time.Sleep(time.Duration(5+rng.Int63n(20)) * time.Millisecond)
				continue
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK, http.StatusNotFound:
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				res.sheds++
				time.Sleep(retryDelay(resp, rng))
			default:
				res.errors++
			}
		}

		// The pid keeps ids unique across hrtload runs: against a durable
		// cluster a second run would otherwise collide with the previous
		// run's surviving placements and take 409s.
		n := uniqueCtr.Add(1)
		id := fmt.Sprintf("w%d-%d-%d", w, os.Getpid(), n)
		periodNs := periodMenuUs[rng.Intn(len(periodMenuUs))] * 1000
		sliceNs := periodNs/20 + rng.Int63n(periodNs/10)
		body := fmt.Sprintf(`{"id":%q,"tasks":[{"period_ns":%d,"slice_ns":%d}]}`,
			id, periodNs, sliceNs)
		start := time.Now()
		resp, err := client.Post(base+"/v1/cluster/place", "application/json", strings.NewReader(body))
		lat := float64(time.Since(start).Nanoseconds()) / 1e3
		res.requests++
		if err != nil {
			res.errors++
			// Transport failures fail in microseconds (connection refused
			// to a killed replica); pace them so a closed loop doesn't
			// record millions of errors while an election settles.
			time.Sleep(time.Duration(5+rng.Int63n(20)) * time.Millisecond)
			continue
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			res.latencyUs = append(res.latencyUs, lat)
			var placed struct {
				Placed bool `json:"placed"`
			}
			if json.Unmarshal(b, &placed) == nil && placed.Placed {
				res.placed++
				ring = append(ring, id)
			} else {
				res.rejected++
			}
		case resp.StatusCode == http.StatusTooManyRequests,
			resp.StatusCode == http.StatusServiceUnavailable:
			res.sheds++
			time.Sleep(retryDelay(resp, rng))
		default:
			res.errors++
		}
	}
}

// batchWorker drives the batched placement path: place batchSize gangs in
// one /v1/cluster/place-batch POST, check every per-item verdict, remove
// them, repeat. Each admitted envelope item counts as one placement; a
// per-item error envelope counts as a hard error (ids are unique, so a
// healthy server never produces one).
func batchWorker(client *http.Client, base string, deadline time.Time,
	w, batchSize int, uniqueCtr *atomic.Int64, res *workerResult, rng *sim.Rand) {
	for time.Now().Before(deadline) {
		ids := make([]string, batchSize)
		var b strings.Builder
		b.WriteString(`{"items":[`)
		for i := range ids {
			n := uniqueCtr.Add(1)
			ids[i] = fmt.Sprintf("bw%d-%d-%d", w, os.Getpid(), n)
			periodNs := periodMenuUs[rng.Intn(len(periodMenuUs))] * 1000
			sliceNs := periodNs/20 + rng.Int63n(periodNs/10)
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"id":%q,"tasks":[{"period_ns":%d,"slice_ns":%d}]}`,
				ids[i], periodNs, sliceNs)
		}
		b.WriteString(`]}`)

		start := time.Now()
		resp, err := client.Post(base+"/v1/cluster/place-batch", "application/json", strings.NewReader(b.String()))
		lat := float64(time.Since(start).Nanoseconds()) / 1e3
		res.requests++
		if err != nil {
			res.errors++
			time.Sleep(time.Duration(5+rng.Int63n(20)) * time.Millisecond)
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var placed []string
		switch {
		case resp.StatusCode == http.StatusOK:
			res.latencyUs = append(res.latencyUs, lat)
			var env struct {
				Items []struct {
					ID     string `json:"id"`
					Result *struct {
						Placed bool `json:"placed"`
					} `json:"result"`
					Error *struct {
						Code string `json:"code"`
					} `json:"error"`
				} `json:"items"`
			}
			if json.Unmarshal(body, &env) != nil || len(env.Items) != batchSize {
				res.errors++
				break
			}
			for _, it := range env.Items {
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
		case resp.StatusCode == http.StatusTooManyRequests,
			resp.StatusCode == http.StatusServiceUnavailable:
			res.sheds++
			time.Sleep(retryDelay(resp, rng))
		default:
			res.errors++
		}

		for _, id := range placed {
			body := fmt.Sprintf(`{"id":%q}`, id)
			resp, err := client.Post(base+"/v1/cluster/remove", "application/json", strings.NewReader(body))
			res.requests++
			if err != nil {
				res.errors++
				time.Sleep(time.Duration(5+rng.Int63n(20)) * time.Millisecond)
				continue
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK, http.StatusNotFound:
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				res.sheds++
				time.Sleep(retryDelay(resp, rng))
			default:
				res.errors++
			}
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
func simBody(rng *sim.Rand, i int) string {
	periodNs := periodMenuUs[rng.Intn(len(periodMenuUs))] * 1000
	s1 := periodNs/5 + rng.Int63n(periodNs/5)
	s2 := periodNs/10 + rng.Int63n(periodNs/10)
	model := simModels[i%len(simModels)]
	var faults string
	if i%2 == 0 {
		faults = `"faults":["smi-storm"],`
	}
	return fmt.Sprintf(`{"scenario":{"name":"load-%d","cpus":2,"tasks":[`+
		`{"period_ns":%d,"slice_ns":%d,"cpu":0},`+
		`{"period_ns":%d,"slice_ns":%d,"cpu":1}],`+
		`"model":%q,%s"replications":3},"seed":%d}`,
		i, periodNs, s1, periodNs, s2, model, faults, 1000+i)
}

// simulateWorker fires /v1/simulate requests from the shared body pool
// back-to-back until the deadline. The first reply for each body is
// published to seen; every later reply must match it byte for byte.
func simulateWorker(client *http.Client, base string, deadline time.Time,
	bodies []string, seen *sync.Map, res *workerResult, rng *sim.Rand) {
	for time.Now().Before(deadline) {
		i := rng.Intn(len(bodies))
		start := time.Now()
		resp, err := client.Post(base+"/v1/simulate", "application/json", strings.NewReader(bodies[i]))
		lat := float64(time.Since(start).Nanoseconds()) / 1e3
		res.requests++
		if err != nil {
			res.errors++
			time.Sleep(time.Duration(5+rng.Int63n(20)) * time.Millisecond)
			continue
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			res.latencyUs = append(res.latencyUs, lat)
			if prev, loaded := seen.LoadOrStore(i, string(b)); loaded && prev.(string) != string(b) {
				res.mismatches++
			}
			var rep struct {
				EngineSteps uint64 `json:"engine_steps"`
			}
			if err := json.Unmarshal(b, &rep); err != nil || rep.EngineSteps == 0 {
				res.emptySims++
			}
		case resp.StatusCode == http.StatusTooManyRequests,
			resp.StatusCode == http.StatusServiceUnavailable:
			res.sheds++
			time.Sleep(retryDelay(resp, rng))
		default:
			res.errors++
		}
	}
}

// dagAnalyzers are the analyzer names dag mode cycles through.
var dagAnalyzers = []string{"classical", "alpha-beta"}

// dagWorker churns DAG reservations: randomized small DAGs go in through
// /v1/dag/place and come back out through /v1/cluster/remove (an admitted
// DAG is an ordinary placement), the same ring discipline as clusterWorker.
func dagWorker(client *http.Client, base string, deadline time.Time,
	w, ringSize int, uniqueCtr *atomic.Int64, res *workerResult, rng *sim.Rand) {
	var ring []string
	for time.Now().Before(deadline) {
		if len(ring) >= ringSize {
			id := ring[0]
			ring = ring[1:]
			body := fmt.Sprintf(`{"id":%q}`, id)
			resp, err := client.Post(base+"/v1/cluster/remove", "application/json", strings.NewReader(body))
			res.requests++
			if err != nil {
				res.errors++
				time.Sleep(time.Duration(5+rng.Int63n(20)) * time.Millisecond)
				continue
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK, http.StatusNotFound:
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				res.sheds++
				time.Sleep(retryDelay(resp, rng))
			default:
				res.errors++
			}
		}

		n := uniqueCtr.Add(1)
		id := fmt.Sprintf("dag-w%d-%d-%d", w, os.Getpid(), n)
		body := fmt.Sprintf(`{"id":%q,"task":%s,"analyzer":%q}`,
			id, dagBody(rng), dagAnalyzers[rng.Intn(len(dagAnalyzers))])
		start := time.Now()
		resp, err := client.Post(base+"/v1/dag/place", "application/json", strings.NewReader(body))
		lat := float64(time.Since(start).Nanoseconds()) / 1e3
		res.requests++
		if err != nil {
			res.errors++
			time.Sleep(time.Duration(5+rng.Int63n(20)) * time.Millisecond)
			continue
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			res.latencyUs = append(res.latencyUs, lat)
			var placed struct {
				Placed bool `json:"placed"`
			}
			if json.Unmarshal(b, &placed) == nil && placed.Placed {
				res.placed++
				ring = append(ring, id)
			} else {
				res.rejected++
			}
		case resp.StatusCode == http.StatusTooManyRequests,
			resp.StatusCode == http.StatusServiceUnavailable:
			res.sheds++
			time.Sleep(retryDelay(resp, rng))
		default:
			res.errors++
		}
	}
}

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

// retryDelay says how long to wait before retrying after a 429 or 503.
// It honors the server's Retry-After seconds when present (hrtd sends
// Retry-After: 1 while a cluster has no ready leader), caps the base at
// 2s, and jitters the result across [base/2, base*3/2) so the workers
// that were shed together don't re-stampede together.
func retryDelay(resp *http.Response, rng *sim.Rand) time.Duration {
	base := 50 * time.Millisecond
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(strings.TrimSpace(s)); err == nil && secs > 0 {
			base = time.Duration(secs) * time.Second
		}
	}
	if base > 2*time.Second {
		base = 2 * time.Second
	}
	return base/2 + time.Duration(rng.Int63n(int64(base)))
}

// poolBody builds the i-th popular task set: 1-3 tasks from the period
// menu with slices well under the bound, serialized once up front so the
// hot loop only swaps strings.
func poolBody(rng *sim.Rand, i int) string {
	ntasks := 1 + i%3
	var b strings.Builder
	b.WriteString(`{"tasks":[`)
	for t := 0; t < ntasks; t++ {
		periodNs := periodMenuUs[rng.Intn(len(periodMenuUs))] * 1000
		sliceNs := periodNs/10 + rng.Int63n(periodNs/5)
		if t > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"period_ns":%d,"slice_ns":%d}`, periodNs, sliceNs)
	}
	b.WriteString(`]}`)
	return b.String()
}

// printStatus fetches /v1/cluster/status and prints one greppable line.
func printStatus(client *http.Client, base string) error {
	resp, err := client.Get(base + "/v1/cluster/status")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	var st struct {
		// Groups/Reachable are only present in a routed (sharded) status
		// body; an unrouted cluster leaves them zero.
		Groups     int   `json:"groups"`
		Reachable  int   `json:"reachable"`
		Placements int   `json:"placements"`
		Placed     int64 `json:"placed_total"`
		Removed    int64 `json:"removed_total"`
		Rebalanced int64 `json:"rebalanced_total"`
		Drained    int64 `json:"drained_total"`
		Nodes      []struct {
			Tasks int64 `json:"tasks"`
		} `json:"nodes"`
		DAG *struct {
			Placements int   `json:"placements"`
			Placed     int64 `json:"placed_total"`
		} `json:"dag"`
		Durability *struct {
			LastLSN  uint64 `json:"last_lsn"`
			Degraded bool   `json:"degraded"`
		} `json:"durability"`
		Replication *struct {
			Role       string `json:"role"`
			Term       uint64 `json:"term"`
			Leader     int    `json:"leader"`
			CommitLSN  uint64 `json:"commit_lsn"`
			AppliedLSN uint64 `json:"applied_lsn"`
		} `json:"replication"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
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
	fmt.Println(line)
	return nil
}

// scrapeMetric pulls /metrics and extracts the named unlabelled sample.
func scrapeMetric(client *http.Client, base, name string) (float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if v, found := strings.CutPrefix(line, name+" "); found {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s not found in /metrics", name)
}
