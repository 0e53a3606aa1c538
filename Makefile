GO ?= go

.PHONY: ci build vet test race planverify perf-gate fuzz chaos bench bench-engine bench-record bench-record-pr5 bench-record-pr7 bench-record-pr8 bench-record-pr9 bench-record-pr10 engine-bench-smoke whatif-bench-smoke serve-smoke cluster-smoke batch-smoke recovery-smoke failover-smoke dag-smoke shard-smoke simulate-smoke

# ci is the tier-1 gate: every change must pass gofmt, vet, build, the
# benchmark module's vet and tests, the race-enabled test suite, the planverify cross-check, the non-race perf
# gates, a short run of every fuzz target, the quick experiments
# artifact check, the engine benchmark smoke, and the serving-layer
# smokes —
# including the kill -9 recovery, leader-failover, DAG-recovery,
# batched-placement, sharded-router, and what-if simulation smokes —
# before it lands (see README "Testing").
ci: fmt vet build bench-module race planverify perf-gate fuzz experiments-check engine-bench-smoke whatif-bench-smoke serve-smoke cluster-smoke batch-smoke recovery-smoke failover-smoke dag-smoke shard-smoke simulate-smoke

build:
	$(GO) build ./...

# bench-module vets and tests the benchmark driver, its own module under
# bench/: go build ./... at the root never compiles it, so an export it
# imports could otherwise vanish unnoticed until the benchmark runs.
.PHONY: bench-module
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# loc prints the lines of Go outside bench/ and hidden directories (such
# as the benchmark's .bench_build module cache): non-test, test, total.
.PHONY: loc
loc:
	@files=$$(find . -name '*.go' -not -path './.*/*' -not -path './bench/*'); \
	src=$$(echo "$$files" | grep -v '_test\.go$$' | xargs cat | wc -l); \
	tst=$$(echo "$$files" | grep '_test\.go$$' | xargs cat | wc -l); \
	echo "go lines outside bench/: non-test $$src, test $$tst, total $$((src + tst))"

# fmt fails when any Go file outside hidden directories (such as the
# benchmark's .bench_build) is not gofmt-formatted, listing the files.
.PHONY: fmt
fmt:
	@out=$$(find . -name '*.go' -not -path './.*/*' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# vet also vets the perf-gate test files, which only -tags perfgate compiles.
vet:
	$(GO) vet ./...
	$(GO) vet -tags perfgate ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# perf-gate runs the wall-clock gates without the race detector (whose
# several-fold slowdown would measure the instrumentation, not the code —
# the gates skip themselves under -race). They are timed rates and ratios
# that flake when `go test ./...` runs packages in parallel, so they sit
# behind the perfgate build tag and run only here, one package at a time;
# tier-1 keeps a deterministic work-unit proxy for each.
perf-gate:
	$(GO) test -tags perfgate -run TestFreezeStormSpeedupAtLeast5x -count=1 ./internal/sim
	$(GO) test -tags perfgate -run TestDurablePlaceThroughputAtLeast8k -count=1 ./internal/serve
	$(GO) test -tags perfgate -run TestRoutedPlaceScaleoutAtLeast1_8x -count=1 ./internal/route

# fuzz runs each fuzz target for a few seconds beyond its committed seed
# corpus (testdata/fuzz/, which plain go test replays): the canonical
# request scanners against encoding/json, the hot response appenders
# against encoding/json's reflective encoding of a mirror type, the WAL
# record codec against itself, the WAL frame reader, the what-if
# model grammar against its own rendering, the cold /v1 bodies
# (drain, undrain, rebalance, DAG, simulate) against the envelope
# contract, snapshot bodies against a durable cluster's boot, the
# replication term envelope against itself, and the admission demand
# test against the reference hyperperiod simulation. go test fuzzes
# one target per run, hence one line each.
fuzz:
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzScanAnalyze$$' -fuzztime 5s
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzScanAnalyzeBatch$$' -fuzztime 5s
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzScanPlace$$' -fuzztime 5s
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzScanPlaceBatch$$' -fuzztime 5s
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzScanRemove$$' -fuzztime 5s
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzColdBodies$$' -fuzztime 5s
	$(GO) test ./internal/plan -run '^$$' -fuzz '^FuzzVerdictAppendJSON$$' -fuzztime 5s
	$(GO) test ./internal/plan -run '^$$' -fuzz '^FuzzAnalyzeMatchesReference$$' -fuzztime 5s
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzAppendPlaceResult$$' -fuzztime 5s
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzAppendRemoveReply$$' -fuzztime 5s
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzAppendAnalyzeBatchReply$$' -fuzztime 5s
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzAppendPlaceBatchReply$$' -fuzztime 5s
	$(GO) test ./internal/durable -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime 5s
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzNextFrame$$' -fuzztime 5s
	$(GO) test ./internal/whatif -run '^$$' -fuzz '^FuzzParseModel$$' -fuzztime 5s
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzSnapshotBoot$$' -fuzztime 5s
	$(GO) test ./internal/repl -run '^$$' -fuzz '^FuzzDecodeEntry$$' -fuzztime 5s

# planverify rebuilds the admission layers with the verification tag on,
# so every Incremental verdict is asserted equal to a fresh Analyze of
# the same candidate, under the race detector. It also runs the long
# forms that plain go test shortens: plan's two random-sequence property
# suites at 1000 sequences each, the demand test against the reference
# hyperperiod simulation at 50 000 random sets per spec, and whatif's
# admission oracle at 20 000 one-CPU probe sets plus 2-4-CPU partitions,
# none of them admitted and then missed.
planverify:
	$(GO) vet -tags planverify ./internal/plan ./internal/serve ./internal/route ./internal/whatif
	$(GO) test -race -tags planverify ./internal/plan ./internal/serve ./internal/route ./internal/whatif

# experiments regenerates the committed artifacts: every experiment of
# `hrtbench -all` at the default seed, at the quick preset into
# results/quick.txt and at the full preset (`-full`, about half a minute)
# into results/full.txt, each block ending in its figure digest (the
# wall-time lines go to stderr). A behaviour change shows as a cell diff
# against them; tier-1's TestGoldenDeterminism checks the quick one.
# experiments-check requires the CLI to print the full artifact byte for
# byte once, and the quick one at the default worker count, at one worker
# and at GOMAXPROCS=1.
.PHONY: experiments experiments-check
experiments:
	$(GO) run ./cmd/hrtbench -all > results/quick.txt
	$(GO) run ./cmd/hrtbench -all -full > results/full.txt

experiments-check:
	$(GO) run ./cmd/hrtbench -all -full 2>/dev/null | diff -u results/full.txt -
	$(GO) run ./cmd/hrtbench -all 2>/dev/null | diff -u results/quick.txt -
	$(GO) run ./cmd/hrtbench -all -workers 1 2>/dev/null | diff -u results/quick.txt -
	GOMAXPROCS=1 $(GO) run ./cmd/hrtbench -all 2>/dev/null | diff -u results/quick.txt -

# chaos smoke-runs every fault-injection scenario at a fixed seed and fails
# on any invariant violation.
chaos:
	@for s in smi-storm irq-storm drift overload-shed; do \
		echo "== chaos $$s =="; \
		$(GO) run ./cmd/chaos -scenario $$s -seed 7 || exit 1; \
	done

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-engine runs the event-engine microbenchmarks, rewrite and legacy
# reference side by side.
bench-engine:
	$(GO) test ./internal/sim -run '^$$' -bench 'BenchmarkEngine|BenchmarkLegacy|BenchmarkFreeze' -benchmem

# bench-record regenerates the committed benchmark trajectory artifact
# (BENCH_PR4.json): engine microbenchmarks plus the Quick figure-suite
# wall-clock, as machine-readable JSON.
bench-record:
	$(GO) run ./cmd/benchrecord -o BENCH_PR4.json

# bench-record-pr5 regenerates the durability overhead artifact
# (BENCH_PR5.json): fsync-backed versus in-memory cluster placement, with
# the derived durable_place_overhead_x ratio.
bench-record-pr5:
	$(GO) run ./cmd/benchrecord -pkg ./internal/serve -bench 'BenchmarkClusterPlace' -skip-suite -o BENCH_PR5.json

# bench-record-pr7 regenerates the DAG admission artifact (BENCH_PR7.json):
# end-to-end validate + RTA + placement + removal throughput, with the
# derived dag_admission_ops_per_sec figure.
bench-record-pr7:
	$(GO) run ./cmd/benchrecord -pkg ./internal/serve -bench 'BenchmarkDAGAdmission' -skip-suite -o BENCH_PR7.json

# bench-record-pr8 regenerates the fast-path admission artifact
# (BENCH_PR8.json): memoized versus uncached repeated admission, curve
# versus uncached gang probes, and the batched/durable placement rates,
# with the derived repeat_admission_speedup_x, batch_probe_speedup_x,
# batch_place_ops_per_sec, and durable_place_ops_per_sec figures.
bench-record-pr8:
	$(GO) run ./cmd/benchrecord -pkg './internal/plan ./internal/serve' \
		-bench 'BenchmarkAnalyzeRepeat|BenchmarkGangProbe|BenchmarkClusterPlace' \
		-skip-suite -o BENCH_PR8.json

# bench-record-pr9 regenerates the horizontal scale-out artifact
# (BENCH_PR9.json): routed place-batch throughput on one shard group
# versus four over the same 8 nodes, with the derived
# routed_place_scaleout_x and routed_place_ops_per_sec figures.
bench-record-pr9:
	$(GO) run ./cmd/benchrecord -pkg ./internal/route -bench 'BenchmarkRoutedPlace' -skip-suite -o BENCH_PR9.json

# bench-record-pr10 regenerates the what-if simulation artifact
# (BENCH_PR10.json): seeded stochastic replication throughput, with the
# derived simulate_hyperperiods_per_sec and simulate_scenarios_per_sec
# figures.
bench-record-pr10:
	$(GO) run ./cmd/benchrecord -pkg ./internal/whatif -bench 'BenchmarkWhatif' -skip-suite -o BENCH_PR10.json

# engine-bench-smoke compiles and exercises every engine benchmark for a
# fixed 100 iterations — fast enough for ci, and it catches benchmarks
# that panic or assert without paying for stable timings.
engine-bench-smoke:
	$(GO) test ./internal/sim -run '^$$' -bench 'BenchmarkEngine' -benchtime 100x

# whatif-bench-smoke does the same for the what-if rungs: a node built
# from nothing, the same node re-booted in place, whole what-if requests,
# one 100-hyperperiod replication (the steady-state, per-event rung), and
# the /v1/simulate handler driven in parallel at one and two CPUs (what
# the second simulation slot buys).
whatif-bench-smoke:
	$(GO) test ./internal/core ./internal/whatif -run '^$$' -bench 'BenchmarkBoot|BenchmarkReboot|BenchmarkWhatif' -benchtime 100x
	$(GO) test ./internal/serve -run '^$$' -bench 'BenchmarkSimulateParallel' -cpu 1,2 -benchtime 100x

# serve-smoke boots hrtd on an ephemeral port, drives it with hrtload for
# two seconds, and fails on any hard error or a cache that never hits.
serve-smoke:
	@set -e; dir=$$(mktemp -d); pid=; \
	cleanup() { [ -n "$$pid" ] && kill $$pid 2>/dev/null || true; rm -rf "$$dir"; }; \
	trap cleanup EXIT; \
	$(GO) build -o "$$dir" ./cmd/hrtd ./cmd/hrtload; \
	"$$dir"/hrtd -addr 127.0.0.1:0 -addr-file "$$dir"/addr >"$$dir"/hrtd.log 2>&1 & pid=$$!; \
	for i in $$(seq 100); do [ -s "$$dir"/addr ] && break; sleep 0.1; done; \
	if ! [ -s "$$dir"/addr ]; then echo "serve-smoke: hrtd never bound"; cat "$$dir"/hrtd.log; exit 1; fi; \
	"$$dir"/hrtload -addr "$$(cat "$$dir"/addr)" -dur 2s -conns 16 -check

# cluster-smoke boots hrtd with a 4-node placement cluster, drives the
# v1 cluster endpoints with hrtload in cluster mode for two seconds, and
# fails unless placements both succeeded and showed up in /metrics.
cluster-smoke:
	@set -e; dir=$$(mktemp -d); pid=; \
	cleanup() { [ -n "$$pid" ] && kill $$pid 2>/dev/null || true; rm -rf "$$dir"; }; \
	trap cleanup EXIT; \
	$(GO) build -o "$$dir" ./cmd/hrtd ./cmd/hrtload; \
	"$$dir"/hrtd -addr 127.0.0.1:0 -addr-file "$$dir"/addr -nodes 4 -policy worst-fit >"$$dir"/hrtd.log 2>&1 & pid=$$!; \
	for i in $$(seq 100); do [ -s "$$dir"/addr ] && break; sleep 0.1; done; \
	if ! [ -s "$$dir"/addr ]; then echo "cluster-smoke: hrtd never bound"; cat "$$dir"/hrtd.log; exit 1; fi; \
	"$$dir"/hrtload -addr "$$(cat "$$dir"/addr)" -mode cluster -dur 2s -conns 8 -check

# batch-smoke boots hrtd with a 4-node cluster and drives the batched
# placement endpoint with hrtload in batch mode for two seconds, failing
# on any hard error, a per-item error envelope, or zero placements.
batch-smoke:
	@set -e; dir=$$(mktemp -d); pid=; \
	cleanup() { [ -n "$$pid" ] && kill $$pid 2>/dev/null || true; rm -rf "$$dir"; }; \
	trap cleanup EXIT; \
	$(GO) build -o "$$dir" ./cmd/hrtd ./cmd/hrtload; \
	"$$dir"/hrtd -addr 127.0.0.1:0 -addr-file "$$dir"/addr -nodes 4 -policy worst-fit >"$$dir"/hrtd.log 2>&1 & pid=$$!; \
	for i in $$(seq 100); do [ -s "$$dir"/addr ] && break; sleep 0.1; done; \
	if ! [ -s "$$dir"/addr ]; then echo "batch-smoke: hrtd never bound"; cat "$$dir"/hrtd.log; exit 1; fi; \
	"$$dir"/hrtload -addr "$$(cat "$$dir"/addr)" -mode batch -dur 2s -conns 8 -live 8 -check

# recovery-smoke is the end-to-end crash-recovery drill: boot hrtd with a
# durable 4-node cluster, drive it with hrtload, kill the daemon with
# SIGKILL mid-flight, restart it on the same data directory, and fail
# unless the recovered placement count matches the pre-crash probe (and
# is non-zero — an empty cluster would pass a trivial diff).
recovery-smoke:
	@set -e; dir=$$(mktemp -d); pid=; \
	cleanup() { [ -n "$$pid" ] && kill -9 $$pid 2>/dev/null || true; rm -rf "$$dir"; }; \
	trap cleanup EXIT; \
	$(GO) build -o "$$dir" ./cmd/hrtd ./cmd/hrtload; \
	"$$dir"/hrtd -addr 127.0.0.1:0 -addr-file "$$dir"/addr -nodes 4 -data-dir "$$dir"/data >"$$dir"/hrtd.log 2>&1 & pid=$$!; \
	for i in $$(seq 100); do [ -s "$$dir"/addr ] && break; sleep 0.1; done; \
	if ! [ -s "$$dir"/addr ]; then echo "recovery-smoke: hrtd never bound"; cat "$$dir"/hrtd.log; exit 1; fi; \
	"$$dir"/hrtload -addr "$$(cat "$$dir"/addr)" -mode cluster -dur 2s -conns 8 -check; \
	before=$$("$$dir"/hrtload -addr "$$(cat "$$dir"/addr)" -mode status -check | sed -n 's/.*status placements=\([0-9]*\).*/\1/p'); \
	kill -9 $$pid; wait $$pid 2>/dev/null || true; pid=; \
	rm -f "$$dir"/addr; \
	"$$dir"/hrtd -addr 127.0.0.1:0 -addr-file "$$dir"/addr -nodes 4 -data-dir "$$dir"/data >"$$dir"/hrtd2.log 2>&1 & pid=$$!; \
	for i in $$(seq 100); do [ -s "$$dir"/addr ] && break; sleep 0.1; done; \
	if ! [ -s "$$dir"/addr ]; then echo "recovery-smoke: hrtd never rebound"; cat "$$dir"/hrtd2.log; exit 1; fi; \
	after=$$("$$dir"/hrtload -addr "$$(cat "$$dir"/addr)" -mode status -check | sed -n 's/.*status placements=\([0-9]*\).*/\1/p'); \
	grep 'hrtd: recovery:' "$$dir"/hrtd2.log || { echo "recovery-smoke: no recovery boot line"; cat "$$dir"/hrtd2.log; exit 1; }; \
	if [ -z "$$before" ] || [ "$$before" -eq 0 ]; then echo "recovery-smoke: pre-crash placements empty ($$before)"; exit 1; fi; \
	if [ "$$before" != "$$after" ]; then echo "recovery-smoke: placements diverged: before=$$before after=$$after"; cat "$$dir"/hrtd2.log; exit 1; fi; \
	echo "recovery-smoke: ok ($$before placements survived kill -9)"

# dag-smoke is the end-to-end DAG admission drill: boot hrtd with a
# durable 4-node cluster, submit a random DAG fleet with hrtload in dag
# mode, kill the daemon with SIGKILL, restart it on the same data
# directory, and fail unless the recovered status line — DAG placements
# and the replicated placed total included — is byte-identical to the
# pre-crash probe (session-local WAL counters stripped), and non-empty.
dag-smoke:
	@set -e; dir=$$(mktemp -d); pid=; \
	cleanup() { [ -n "$$pid" ] && kill -9 $$pid 2>/dev/null || true; rm -rf "$$dir"; }; \
	trap cleanup EXIT; \
	$(GO) build -o "$$dir" ./cmd/hrtd ./cmd/hrtload; \
	"$$dir"/hrtd -addr 127.0.0.1:0 -addr-file "$$dir"/addr -nodes 4 -data-dir "$$dir"/data >"$$dir"/hrtd.log 2>&1 & pid=$$!; \
	for i in $$(seq 100); do [ -s "$$dir"/addr ] && break; sleep 0.1; done; \
	if ! [ -s "$$dir"/addr ]; then echo "dag-smoke: hrtd never bound"; cat "$$dir"/hrtd.log; exit 1; fi; \
	"$$dir"/hrtload -addr "$$(cat "$$dir"/addr)" -mode dag -dur 2s -conns 8 -check; \
	before=$$("$$dir"/hrtload -addr "$$(cat "$$dir"/addr)" -mode status -check | sed 's/ durable=.*//'); \
	case "$$before" in *"dag_placements="*) ;; *) echo "dag-smoke: no DAG block in status: $$before"; exit 1;; esac; \
	case "$$before" in *"dag_placements=0 "*) echo "dag-smoke: zero DAG placements would pass a trivial diff: $$before"; exit 1;; esac; \
	kill -9 $$pid; wait $$pid 2>/dev/null || true; pid=; \
	rm -f "$$dir"/addr; \
	"$$dir"/hrtd -addr 127.0.0.1:0 -addr-file "$$dir"/addr -nodes 4 -data-dir "$$dir"/data >"$$dir"/hrtd2.log 2>&1 & pid=$$!; \
	for i in $$(seq 100); do [ -s "$$dir"/addr ] && break; sleep 0.1; done; \
	if ! [ -s "$$dir"/addr ]; then echo "dag-smoke: hrtd never rebound"; cat "$$dir"/hrtd2.log; exit 1; fi; \
	grep 'hrtd: recovery:' "$$dir"/hrtd2.log >/dev/null || { echo "dag-smoke: no recovery boot line"; cat "$$dir"/hrtd2.log; exit 1; }; \
	after=$$("$$dir"/hrtload -addr "$$(cat "$$dir"/addr)" -mode status -check | sed 's/ durable=.*//'); \
	if [ "$$before" != "$$after" ]; then echo "dag-smoke: status diverged across kill -9:"; echo " before: $$before"; echo " after:  $$after"; cat "$$dir"/hrtd2.log; exit 1; fi; \
	echo "dag-smoke: ok ($$before)"

# shard-smoke is the end-to-end horizontal scale-out drill: boot four
# independent shard-group daemons (2 nodes each), front them with a
# stateless router daemon, drive the routed place-batch path with
# hrtload, assert the aggregate status sees all four groups, then kill -9
# one group's daemon and fail unless the router keeps serving — batches
# still place on the surviving groups (degrading per-item, not
# per-request) and the aggregate status reports exactly one group down.
shard-smoke:
	@set -e; dir=$$(mktemp -d); g1=; g2=; g3=; g4=; rpid=; \
	cleanup() { for p in $$g1 $$g2 $$g3 $$g4 $$rpid; do kill -9 $$p 2>/dev/null || true; done; rm -rf "$$dir"; }; \
	trap cleanup EXIT; \
	$(GO) build -o "$$dir" ./cmd/hrtd ./cmd/hrtload; \
	for g in 1 2 3 4; do \
		"$$dir"/hrtd -addr 127.0.0.1:0 -addr-file "$$dir"/g$$g.addr -nodes 2 >"$$dir"/g$$g.log 2>&1 & \
		eval g$$g=$$!; \
	done; \
	for g in 1 2 3 4; do \
		for i in $$(seq 100); do [ -s "$$dir"/g$$g.addr ] && break; sleep 0.1; done; \
		if ! [ -s "$$dir"/g$$g.addr ]; then echo "shard-smoke: group $$g never bound"; cat "$$dir"/g$$g.log; exit 1; fi; \
	done; \
	"$$dir"/hrtd -addr 127.0.0.1:0 -addr-file "$$dir"/router.addr \
		-route "$$(cat "$$dir"/g1.addr)" -route "$$(cat "$$dir"/g2.addr)" \
		-route "$$(cat "$$dir"/g3.addr)" -route "$$(cat "$$dir"/g4.addr)" \
		>"$$dir"/router.log 2>&1 & rpid=$$!; \
	for i in $$(seq 100); do [ -s "$$dir"/router.addr ] && break; sleep 0.1; done; \
	if ! [ -s "$$dir"/router.addr ]; then echo "shard-smoke: router never bound"; cat "$$dir"/router.log; exit 1; fi; \
	grep 'hrtd: routing: groups=4' "$$dir"/router.log >/dev/null || { echo "shard-smoke: no routing boot line"; cat "$$dir"/router.log; exit 1; }; \
	"$$dir"/hrtload -addr "$$(cat "$$dir"/router.addr)" -mode batch -dur 2s -conns 4 -live 8 -check; \
	st=$$("$$dir"/hrtload -addr "$$(cat "$$dir"/router.addr)" -mode status -check); \
	case "$$st" in *"groups=4 reachable=4"*) ;; *) echo "shard-smoke: bad healthy status: $$st"; exit 1;; esac; \
	kill -9 $$g2; wait $$g2 2>/dev/null || true; g2=; \
	"$$dir"/hrtload -addr "$$(cat "$$dir"/router.addr)" -mode batch -dur 2s -conns 4 -live 8 >"$$dir"/degraded.log 2>&1 || true; \
	placed=$$(sed -n 's/^hrtload: \([0-9]*\) placed.*/\1/p' "$$dir"/degraded.log); \
	if [ -z "$$placed" ] || [ "$$placed" -eq 0 ]; then echo "shard-smoke: nothing placed with one group down"; cat "$$dir"/degraded.log; cat "$$dir"/router.log; exit 1; fi; \
	st2=$$("$$dir"/hrtload -addr "$$(cat "$$dir"/router.addr)" -mode status -check); \
	case "$$st2" in *"groups=4 reachable=3"*) ;; *) echo "shard-smoke: bad degraded status: $$st2"; exit 1;; esac; \
	echo "shard-smoke: ok ($$placed placements with one of four groups killed; $$st2)"

# simulate-smoke is the end-to-end what-if drill: boot hrtd with two
# in-process shard groups (so /v1/simulate rides the router), run the
# same small distributed sweep grid twice through cmd/sweep and fail
# unless the outputs are byte-identical, then drive the endpoint with
# hrtload in simulate mode, which fails on any hard error, a reply
# that diverged for a repeated seed, or one that simulated nothing.
simulate-smoke:
	@set -e; dir=$$(mktemp -d); pid=; \
	cleanup() { [ -n "$$pid" ] && kill $$pid 2>/dev/null || true; rm -rf "$$dir"; }; \
	trap cleanup EXIT; \
	$(GO) build -o "$$dir" ./cmd/hrtd ./cmd/hrtload ./cmd/sweep; \
	"$$dir"/hrtd -addr 127.0.0.1:0 -addr-file "$$dir"/addr -nodes 4 -shard-groups 2 >"$$dir"/hrtd.log 2>&1 & pid=$$!; \
	for i in $$(seq 100); do [ -s "$$dir"/addr ] && break; sleep 0.1; done; \
	if ! [ -s "$$dir"/addr ]; then echo "simulate-smoke: hrtd never bound"; cat "$$dir"/hrtd.log; exit 1; fi; \
	"$$dir"/sweep -targets "$$(cat "$$dir"/addr)" -models wcet,half-random -utils 0.5,0.8 \
		-grid-seeds 2 -reps 5 -json >"$$dir"/sweep1.json; \
	"$$dir"/sweep -targets "$$(cat "$$dir"/addr)" -models wcet,half-random -utils 0.5,0.8 \
		-grid-seeds 2 -reps 5 -json >"$$dir"/sweep2.json; \
	cmp "$$dir"/sweep1.json "$$dir"/sweep2.json || { echo "simulate-smoke: repeated sweep diverged"; exit 1; }; \
	"$$dir"/hrtload -addr "$$(cat "$$dir"/addr)" -mode simulate -dur 2s -conns 4 -check; \
	echo "simulate-smoke: ok (repeated sweep byte-identical)"

# failover-smoke is the end-to-end replication drill: boot a 3-replica
# hrtd placement service, drive mutations through a follower (so every
# one rides a 307 leader redirect), kill -9 the leader mid-stream, and
# fail unless a new leader emerges within the election budget, both
# survivors converge to the same durable view, and a final checked load
# run lands cleanly on the re-formed cluster.
failover-smoke:
	@set -e; dir=$$(mktemp -d); p1=; p2=; p3=; loadpid=; \
	cleanup() { for p in $$p1 $$p2 $$p3 $$loadpid; do kill -9 $$p 2>/dev/null || true; done; rm -rf "$$dir"; }; \
	trap cleanup EXIT; \
	$(GO) build -o "$$dir" ./cmd/hrtd ./cmd/hrtload; \
	peers="-peer 0=127.0.0.1:29871 -peer 1=127.0.0.1:29872 -peer 2=127.0.0.1:29873"; \
	for r in 1 2 3; do \
		"$$dir"/hrtd -addr 127.0.0.1:2987$$r -nodes 4 -data-dir "$$dir"/d$$r \
			-replicas 3 -id $$((r-1)) $$peers >"$$dir"/hrtd$$r.log 2>&1 & \
		eval p$$r=$$!; \
	done; \
	leader=; \
	for i in $$(seq 100); do \
		for r in 1 2 3; do \
			line=$$("$$dir"/hrtload -addr 127.0.0.1:2987$$r -mode status 2>/dev/null || true); \
			case "$$line" in *"role=leader"*) leader=$$r; break 2;; esac; \
		done; \
		sleep 0.1; \
	done; \
	if [ -z "$$leader" ]; then echo "failover-smoke: no leader elected"; cat "$$dir"/hrtd1.log; exit 1; fi; \
	follower=1; [ "$$leader" = 1 ] && follower=2; \
	echo "failover-smoke: leader is replica $$((leader-1)), loading via follower $$((follower-1))"; \
	"$$dir"/hrtload -addr 127.0.0.1:2987$$follower -mode cluster -dur 4s -conns 4 >"$$dir"/load.log 2>&1 & loadpid=$$!; \
	sleep 1; \
	eval kill -9 \$$p$$leader; eval p$$leader=; \
	newleader=; \
	for i in $$(seq 100); do \
		for r in 1 2 3; do \
			[ "$$r" = "$$leader" ] && continue; \
			line=$$("$$dir"/hrtload -addr 127.0.0.1:2987$$r -mode status 2>/dev/null || true); \
			case "$$line" in *"role=leader"*) newleader=$$r; break 2;; esac; \
		done; \
		sleep 0.1; \
	done; \
	if [ -z "$$newleader" ]; then echo "failover-smoke: no new leader after kill -9"; cat "$$dir"/hrtd$$follower.log; exit 1; fi; \
	echo "failover-smoke: replica $$((newleader-1)) took over"; \
	wait $$loadpid 2>/dev/null || true; loadpid=; \
	grep 'leader redirects followed' "$$dir"/load.log >/dev/null || { echo "failover-smoke: no 307 redirects observed"; cat "$$dir"/load.log; exit 1; }; \
	"$$dir"/hrtload -addr 127.0.0.1:2987$$follower -mode cluster -dur 2s -conns 4 -check; \
	other=; for r in 1 2 3; do [ "$$r" != "$$leader" ] && [ "$$r" != "$$newleader" ] && other=$$r; done; \
	same=; \
	for i in $$(seq 50); do \
		v1=$$("$$dir"/hrtload -addr 127.0.0.1:2987$$newleader -mode status 2>/dev/null | sed 's/ durable=.*//'); \
		v2=$$("$$dir"/hrtload -addr 127.0.0.1:2987$$other -mode status 2>/dev/null | sed 's/ durable=.*//'); \
		if [ -n "$$v1" ] && [ "$$v1" = "$$v2" ]; then same=yes; break; fi; \
		sleep 0.2; \
	done; \
	if [ -z "$$same" ]; then echo "failover-smoke: survivors diverged:"; echo " $$v1"; echo " $$v2"; exit 1; fi; \
	case "$$v1" in *"placements=0"*) echo "failover-smoke: empty cluster would pass a trivial diff"; exit 1;; esac; \
	echo "failover-smoke: ok ($$v1)"
