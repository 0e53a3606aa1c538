// Command hrtd is the admission-query daemon: an HTTP/JSON front end over
// the schedulability engine in internal/plan, served through the sharded,
// batching, caching layer in internal/serve.
//
// Usage:
//
//	hrtd -machine phi -util 0.99 -addr 127.0.0.1:8080
//	hrtd -addr 127.0.0.1:0 -addr-file /tmp/hrtd.addr   # ephemeral port
//	hrtd -nodes 8 -policy worst-fit                    # placement cluster
//	hrtd -nodes 4 -data-dir /var/lib/hrtd              # durable cluster state
//
// A replicated placement service runs one hrtd per replica, each naming
// every peer (including itself):
//
//	hrtd -addr 127.0.0.1:9101 -data-dir /var/lib/hrtd-0 -replicas 3 -id 0 \
//	     -peer 0=127.0.0.1:9101 -peer 1=127.0.0.1:9102 -peer 2=127.0.0.1:9103
//
// Mutations commit once a majority of replicas has fsynced them; a
// follower answers mutations with a 307 redirect to the leader and serves
// GET /v1/cluster/status from its own durable view. On SIGTERM a leader
// hands leadership to the most caught-up follower before draining.
//
// Endpoints: POST /v1/analyze, POST /v1/capacity, POST /v1/simulate,
// POST /v1/cluster/{place,remove,drain,undrain,rebalance},
// GET /v1/cluster/status, GET /metrics, GET /healthz. POST /analyze and
// /capacity remain as deprecated aliases.
//
// POST /v1/simulate runs stochastic what-if replications (internal/whatif)
// on a bounded worker pool (-sim-workers, -sim-queue); a full queue sheds
// with 429 + Retry-After. Routing daemons forward the run to a shard
// group by rendezvous hash of (scenario name, seed).
//
// Horizontal scale-out shards the node fleet into independent groups
// behind the placement router (internal/route):
//
//	hrtd -nodes 8 -shard-groups 4            # 4 in-process shard groups
//	hrtd -route http://10.0.0.1:9101 -route http://10.0.0.2:9101
//
// With -shard-groups K the fleet partitions into K in-process clusters
// (each optionally durable under -data-dir/group-<k>); with -route the
// daemon is a pure stateless router over remote group daemons, each of
// which may itself be a replica set (the router follows 307 leader
// redirects). The /v1/cluster and /v1/dag routes answer through the
// router either way, with X-Hrtd-Shard-Group attribution headers.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hrtsched/internal/machine"
	"hrtsched/internal/route"
	"hrtsched/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 for ephemeral)")
		addrFile = flag.String("addr-file", "", "write the bound address to this file once listening")
		mach     = flag.String("machine", "phi", "platform model: phi or r415")
		util     = flag.Float64("util", 0.99, "admission utilization limit in (0,1]")
		overhead = flag.Int64("overhead-ns", 0, "override per-invocation overhead ns (0 = derive from -machine)")
		shards   = flag.Int("shards", 0, "worker shards (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 0, "per-shard queue depth (0 = default 1024)")
		batch    = flag.Int("batch", 0, "max queued requests a shard answers as one batch (0 = default 64)")
		cache    = flag.Int("cache", 0, "per-shard verdict cache entries (0 = default 4096)")
		nodes    = flag.Int("nodes", 4, "placement-cluster nodes (0 disables the cluster routes)")
		policy   = flag.String("policy", "first-fit", "placement policy: first-fit or worst-fit")
		dataDir  = flag.String("data-dir", "", "durable state directory (WAL + snapshots); empty = in-memory only")
		replicas = flag.Int("replicas", 1, "total replica count (>1 replicates the placement log)")
		replID   = flag.Int("id", 0, "this replica's id in [0,replicas)")
		groups   = flag.Int("shard-groups", 1, "partition the node fleet into this many in-process shard groups behind the placement router")
		simWork  = flag.Int("sim-workers", 0, "what-if simulation workers (0 = GOMAXPROCS/2)")
		simQueue = flag.Int("sim-queue", 0, "what-if simulation queue depth (0 = default 16)")
	)
	var routes []string
	flag.Func("route", "shard-group daemon base URL (repeat once per group); makes this daemon a stateless router", func(v string) error {
		if v == "" {
			return fmt.Errorf("empty -route URL")
		}
		if !strings.Contains(v, "://") {
			v = "http://" + v
		}
		routes = append(routes, v)
		return nil
	})
	peers := map[int]string{}
	flag.Func("peer", "replica address as id=host:port (repeat once per replica)", func(v string) error {
		id, hostport, ok := strings.Cut(v, "=")
		if !ok {
			return fmt.Errorf("want id=host:port, got %q", v)
		}
		n, err := strconv.Atoi(id)
		if err != nil {
			return fmt.Errorf("bad replica id %q: %w", id, err)
		}
		peers[n] = "http://" + hostport
		return nil
	})
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "hrtd: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		fail("unexpected arguments: %v", flag.Args())
	}
	if *addr == "" {
		fail("-addr must not be empty")
	}
	var spec machine.Spec
	switch *mach {
	case "phi":
		spec = machine.PhiKNL()
	case "r415":
		spec = machine.R415()
	default:
		fail("-machine must be phi or r415 (got %q)", *mach)
	}
	if *util <= 0 || *util > 1 {
		fail("-util must be in (0,1] (got %g)", *util)
	}
	if *overhead < 0 {
		fail("-overhead-ns must be non-negative (got %d)", *overhead)
	}
	if *shards < 0 || *queue < 0 || *batch < 0 || *cache < 0 || *nodes < 0 {
		fail("-shards, -queue, -batch, -cache and -nodes must be non-negative")
	}
	if *simWork < 0 || *simQueue < 0 {
		fail("-sim-workers and -sim-queue must be non-negative")
	}
	pol, err := serve.ParsePolicy(*policy)
	if err != nil {
		fail("%v", err)
	}
	if *dataDir != "" && *nodes == 0 {
		fail("-data-dir requires a placement cluster (-nodes > 0)")
	}
	if *replicas < 1 {
		fail("-replicas must be at least 1 (got %d)", *replicas)
	}
	if *groups < 1 {
		fail("-shard-groups must be at least 1 (got %d)", *groups)
	}
	if len(routes) > 0 {
		// A routing daemon owns no nodes of its own: the groups do.
		if *groups > 1 {
			fail("-route and -shard-groups are mutually exclusive (the -route targets are the groups)")
		}
		if *dataDir != "" || *replicas > 1 {
			fail("-route is a stateless router; -data-dir and -replicas belong on the group daemons")
		}
	}
	if *groups > 1 {
		if *nodes < *groups {
			fail("-shard-groups %d needs at least that many nodes (got -nodes %d)", *groups, *nodes)
		}
		if *replicas > 1 {
			fail("-shard-groups > 1 cannot replicate in-process; run replicated group daemons and front them with -route")
		}
	}
	if *replicas > 1 {
		if *dataDir == "" {
			fail("-replicas > 1 requires -data-dir (the replicated log lives there)")
		}
		if *replID < 0 || *replID >= *replicas {
			fail("-id %d outside [0,%d)", *replID, *replicas)
		}
		for i := 0; i < *replicas; i++ {
			if peers[i] == "" {
				fail("-replicas %d needs -peer %d=host:port", *replicas, i)
			}
		}
	}

	planSpec := serve.SpecFor(spec, *util)
	if *overhead > 0 {
		planSpec.OverheadNs = *overhead
	}
	srv, err := serve.New(serve.Config{
		Spec:          planSpec,
		Shards:        *shards,
		QueueDepth:    *queue,
		BatchSize:     *batch,
		CacheEntries:  *cache,
		SimWorkers:    *simWork,
		SimQueueDepth: *simQueue,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hrtd: %v\n", err)
		os.Exit(1)
	}
	defer srv.Close()

	var (
		cluster  *serve.Cluster
		clusters []*serve.Cluster
		router   *route.Router
	)
	switch {
	case len(routes) > 0:
		// Stateless router over remote shard-group daemons. Boot retries the
		// status probe briefly so the router can start alongside its groups.
		rgroups := make([]route.Group, len(routes))
		for i, u := range routes {
			var rg *route.RemoteGroup
			deadline := time.Now().Add(10 * time.Second)
			for {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				rg, err = route.NewRemoteGroup(ctx, u, 30*time.Second)
				cancel()
				if err == nil || time.Now().After(deadline) {
					break
				}
				time.Sleep(200 * time.Millisecond)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "hrtd: %v\n", err)
				os.Exit(1)
			}
			rgroups[i] = rg
		}
		router, err = route.New(rgroups, route.Config{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "hrtd: %v\n", err)
			os.Exit(1)
		}
		router.RegisterMetrics(srv.Registry())
		fmt.Printf("hrtd: routing: groups=%d targets=%s\n", len(routes), strings.Join(routes, ","))
	case *groups > 1 && *nodes > 0:
		// In-process sharding: partition the fleet into K independent
		// clusters (each optionally durable under its own subdirectory)
		// behind the router.
		part := route.PartitionNodes(*nodes, *groups)
		lgroups := make([]route.Group, *groups)
		for g := range lgroups {
			ccfg := serve.ClusterConfig{
				Spec:   planSpec,
				Nodes:  len(part[g]),
				Policy: pol,
			}
			if *dataDir != "" {
				ccfg.Durability = &serve.DurabilityConfig{
					Dir: filepath.Join(*dataDir, fmt.Sprintf("group-%d", g)),
				}
			}
			cl, cerr := serve.NewCluster(ccfg)
			if cerr != nil {
				fmt.Fprintf(os.Stderr, "hrtd: group %d: %v\n", g, cerr)
				os.Exit(1)
			}
			clusters = append(clusters, cl)
			defer cl.Close()
			cl.RegisterMetrics(srv.Registry().Labeled(serve.Label{Key: "group", Value: strconv.Itoa(g)}))
			// The server carries the simulation pool, so local groups wrap it
			// too: the router's /v1/simulate answers in process.
			lgroups[g] = route.NewLocalGroupWithServer(cl, srv)
		}
		router, err = route.New(lgroups, route.Config{Partition: part})
		if err != nil {
			fmt.Fprintf(os.Stderr, "hrtd: %v\n", err)
			os.Exit(1)
		}
		router.RegisterMetrics(srv.Registry())
		fmt.Printf("hrtd: sharding: groups=%d nodes=%d partition=%v durable=%v\n",
			*groups, *nodes, part, *dataDir != "")
	case *nodes > 0:
		ccfg := serve.ClusterConfig{
			Spec:   planSpec,
			Nodes:  *nodes,
			Policy: pol,
		}
		if *dataDir != "" {
			ccfg.Durability = &serve.DurabilityConfig{Dir: *dataDir}
		}
		if *replicas > 1 {
			ccfg.Replication = &serve.ReplicationConfig{
				ID:       *replID,
				Replicas: *replicas,
				Peers:    peers,
			}
		}
		cluster, err = serve.NewCluster(ccfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hrtd: %v\n", err)
			os.Exit(1)
		}
		defer cluster.Close()
		cluster.RegisterMetrics(srv.Registry())
		if *dataDir != "" {
			rec := cluster.Recovery()
			fmt.Printf("hrtd: recovery: snapshot_lsn=%d replayed=%d rejected=%d truncated_bytes=%d dropped_segments=%d bad_snapshots=%d orphans=%d last_lsn=%d spec_changed=%v\n",
				rec.SnapshotLSN, rec.Replayed, rec.Rejected, rec.TruncatedBytes,
				rec.DroppedSegments, rec.BadSnapshots, rec.OrphansReleased,
				rec.LastLSN, rec.SpecChanged)
		}
		if *replicas > 1 {
			fmt.Printf("hrtd: replication: id=%d replicas=%d peers=%s\n",
				*replID, *replicas, peerList(peers, *replicas))
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hrtd: listen: %v\n", err)
		os.Exit(1)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "hrtd: write -addr-file: %v\n", err)
			os.Exit(1)
		}
	}
	cfg := srv.Config()
	fmt.Printf("hrtd: listening on %s (machine=%s overhead=%dns util=%g shards=%d queue=%d batch=%d cache=%d nodes=%d policy=%s)\n",
		bound, spec.Name, planSpec.OverheadNs, planSpec.UtilizationLimit,
		cfg.Shards, cfg.QueueDepth, cfg.BatchSize, cfg.CacheEntries,
		*nodes, pol)

	var handler http.Handler = srv.HandlerWithCluster(cluster)
	if router != nil {
		// The router owns the /v1/cluster and /v1/dag routes; the query
		// server keeps /v1/analyze, /metrics, and /healthz underneath it.
		handler = router.Handler(srv.Handler())
	}
	hs := &http.Server{Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		// Orderly teardown: stop accepting HTTP and drain in-flight
		// requests, then let the node workers drain their bounded queues
		// and the WAL flush + final snapshot (cluster.Close), bounded by a
		// timeout so a wedged worker cannot hold the process hostage.
		fmt.Printf("hrtd: %v, shutting down\n", got)
		start := time.Now()
		// A replicated leader hands off before draining so the cluster
		// keeps accepting mutations while this replica goes away. Failure
		// is fine — the survivors elect on the missed-heartbeat path.
		if cluster != nil && *replicas > 1 {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			if to, err := cluster.TransferLeadership(ctx); err == nil {
				fmt.Printf("hrtd: leadership transferred to replica %d\n", to)
			} else {
				fmt.Printf("hrtd: leadership transfer skipped: %v\n", err)
			}
			cancel()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		httpErr := hs.Shutdown(ctx)
		cancel()
		clusterDrained := true
		if cluster != nil || len(clusters) > 0 {
			done := make(chan struct{})
			go func() {
				if cluster != nil {
					cluster.Close()
				}
				for _, cl := range clusters {
					cl.Close()
				}
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				clusterDrained = false
			}
		}
		srv.Close()
		fmt.Printf("hrtd: shutdown summary: signal=%v http_drained=%v cluster_drained=%v durable=%v took=%.2fs\n",
			got, httpErr == nil, clusterDrained, *dataDir != "", time.Since(start).Seconds())
		if !clusterDrained {
			os.Exit(1)
		}
	case err := <-errCh:
		if err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "hrtd: serve: %v\n", err)
			os.Exit(1)
		}
	}
}

// peerList renders the peer map in id order for the boot line.
func peerList(peers map[int]string, n int) string {
	parts := make([]string, 0, n)
	for i := 0; i < n; i++ {
		parts = append(parts, strconv.Itoa(i)+"="+peers[i])
	}
	return strings.Join(parts, ",")
}
