package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions, and adds each end-to-end metric's bound.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of hrtd sees, reported per workload with
// tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_ops_s", "1/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p99_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced metrics, each prefixed with the workload whose
// path it measures. A trace run covers all four workloads, so every
// per-layer metric is measured on every trace run.
var perLayer = []struct {
	workload string
	defs     []metricDef
}{
	{"admit-query", []metricDef{
		{"serve.cache_hit_frac", "frac", "higher"},
		{"serve.requests_per_batch", "count", "higher"},
		{"serve.query_p50_us", "us", "lower"},
		{"serve.query_p99_us", "us", "lower"},
		{"http.query_overhead_p50_us", "us", "lower"},
		{"client.cpu_us_per_op", "us", "lower"},
		{"plan.analyze_p50_us", "us", "lower"},
		{"plan.analyze_p99_us", "us", "lower"},
		{"plan.memo_hit_p50_us", "us", "lower"},
		{"plan.memo_hit_p99_us", "us", "lower"},
		{"serve.analyze_call_p50_us", "us", "lower"},
		{"serve.analyze_call_p99_us", "us", "lower"},
		{"http.handler_p50_us", "us", "lower"},
		{"http.handler_p99_us", "us", "lower"},
		{"http.handler_allocs_per_op", "count", "lower"},
		{"http.handler_bytes_per_op", "bytes", "lower"},
		{"http.roundtrip_p50_us", "us", "lower"},
		{"http.roundtrip_p99_us", "us", "lower"},
	}},
	{"place-durable", []metricDef{
		{"wal.records_per_fsync", "count", "higher"},
		{"wal.fsync_p50_us", "us", "lower"},
		{"wal.fsync_p99_us", "us", "lower"},
		{"wal.bytes_per_record", "bytes", "lower"},
		{"plan.incremental_frac", "frac", "higher"},
		{"durable.recovery_s", "s", "lower"},
		{"client.cpu_us_per_op", "us", "lower"},
		{"durable.encode_p50_us", "us", "lower"},
		{"durable.encode_p99_us", "us", "lower"},
		{"wal.commit_p50_us", "us", "lower"},
		{"wal.commit_p99_us", "us", "lower"},
		{"plan.try_gang_p50_us", "us", "lower"},
		{"plan.try_gang_p99_us", "us", "lower"},
		{"serve.mutation_call_p50_us", "us", "lower"},
		{"serve.mutation_call_p99_us", "us", "lower"},
		{"http.handler_p50_us", "us", "lower"},
		{"http.handler_p99_us", "us", "lower"},
		{"http.roundtrip_p50_us", "us", "lower"},
		{"http.roundtrip_p99_us", "us", "lower"},
	}},
	{"fleet-batch", []metricDef{
		{"plan.incremental_frac", "frac", "higher"},
		{"route.fanout_width_mean", "count", "lower"},
		{"route.group_p50_us", "us", "lower"},
		{"route.group_p99_us", "us", "lower"},
		{"serve.remove_p50_us", "us", "lower"},
		{"client.cpu_us_per_op", "us", "lower"},
		{"plan.try_gang_batch_p50_us", "us", "lower"},
		{"plan.try_gang_batch_p99_us", "us", "lower"},
		{"serve.place_batch_call_p50_us", "us", "lower"},
		{"serve.place_batch_call_p99_us", "us", "lower"},
		{"route.place_batch_call_p50_us", "us", "lower"},
		{"route.place_batch_call_p99_us", "us", "lower"},
		{"route.place_batch_allocs_per_op", "count", "lower"},
		{"route.place_batch_bytes_per_op", "bytes", "lower"},
		{"http.roundtrip_p50_us", "us", "lower"},
		{"http.roundtrip_p99_us", "us", "lower"},
	}},
	{"whatif-simulate", []metricDef{
		{"whatif.run_p50_us", "us", "lower"},
		{"whatif.run_p99_us", "us", "lower"},
		{"whatif.replications_per_s", "1/s", "higher"},
		{"sim.engine_steps_per_s", "1/s", "higher"},
		{"client.cpu_us_per_op", "us", "lower"},
		{"whatif.run_call_p50_us", "us", "lower"},
		{"whatif.run_call_p99_us", "us", "lower"},
		{"whatif.run_allocs_per_op", "count", "lower"},
		{"whatif.run_bytes_per_op", "bytes", "lower"},
		{"serve.simulate_call_p50_us", "us", "lower"},
		{"serve.simulate_call_p99_us", "us", "lower"},
		{"http.roundtrip_p50_us", "us", "lower"},
		{"http.roundtrip_p99_us", "us", "lower"},
	}},
}

// perLayerDefs flattens perLayer into fully named metrics.
func perLayerDefs() []metricDef {
	var out []metricDef
	for _, g := range perLayer {
		for _, d := range g.defs {
			out = append(out, metricDef{g.workload + "." + d.name, d.unit, d.better})
		}
	}
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one-line summary a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything a run measured, written by -o.
type report struct {
	result
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Trace    int               `json:"trace"`
	Meta     meta              `json:"meta"`
	Ungated  map[string]metric `json:"ungated,omitempty"`
	Phases   []phase           `json:"phases"`
	// Windows holds the per-window values the end-to-end medians are
	// taken over.
	Windows  map[string][]float64 `json:"windows,omitempty"`
	Failures []string             `json:"failures,omitempty"`
	Spans    []span               `json:"spans,omitempty"`

	values map[string]float64
}

type phase struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// meta makes a result file self-describing.
type meta struct {
	GoVersion   string              `json:"go_version"`
	GOMAXPROCS  int                 `json:"gomaxprocs"`
	NumCPU      int                 `json:"nproc"`
	Kernel      string              `json:"kernel"`
	Commit      string              `json:"commit"`
	Conns       int                 `json:"conns"`
	Started     string              `json:"started"`
	DaemonFlags map[string][]string `json:"daemon_flags"`
}

func newMeta() meta {
	kernel, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		kernel = []byte("unknown")
	}
	return meta{
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Kernel:      strings.TrimSpace(string(kernel)),
		Commit:      gitCommit(),
		Conns:       conns,
		Started:     time.Now().UTC().Format(time.RFC3339),
		DaemonFlags: map[string][]string{},
	}
}

// gitCommit names the commit checked out in the working directory, or
// "unknown" when it is not a git repository. It reads .git directly so a
// run reads nothing outside its checkout.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, symbolic := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !symbolic {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

func newReport(workload string, cfg runConfig, trace int) *report {
	return &report{
		result:   result{Correct: true, Metrics: map[string]metric{}},
		Workload: workload,
		Seed:     cfg.seed,
		Trace:    trace,
		Meta:     newMeta(),
		Ungated:  map[string]metric{},
		values:   map[string]float64{},
	}
}

func (r *report) phase(name string, d time.Duration) {
	r.Phases = append(r.Phases, phase{name, d.Seconds()})
}

// count folds a drive phase's attempts and failures into the run.
func (r *report) count(t tally) {
	r.Attempted += t.attempted
	r.Failed += t.failed
	r.addFailures(t.failures...)
	if t.failed > 0 {
		r.Correct = false
	}
}

// checkFailed records a failed whole-run check.
func (r *report) checkFailed(err error) {
	r.Correct = false
	r.Failed++
	r.addFailures(err.Error())
}

func (r *report) addFailures(fs ...string) {
	for _, f := range fs {
		if len(r.Failures) < maxFailures {
			r.Failures = append(r.Failures, f)
		}
	}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// finish moves the measured values into Metrics in defs order, failing
// if any listed metric is missing or any unlisted one was measured.
func (r *report) finish(defs []metricDef) error {
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.Metrics[d.name] = metric{v, d.unit}
		delete(r.values, d.name)
	}
	for name := range r.values {
		return fmt.Errorf("metric %s is not listed", name)
	}
	return nil
}

// runConfig is what one invocation was asked to do.
type runConfig struct {
	seed    uint64
	measure time.Duration // measured phase of an end-to-end run; whole trace run
	setups  int           // daemon set-ups per end-to-end run; setup_s is their median
	dir     string        // working directory for daemon data and address files
}

// warm is the discarded warm-up before an end-to-end measured phase.
func (c runConfig) warm() time.Duration { return c.measure / 10 }

// windows is how many one-second windows the measured phase splits into.
func (c runConfig) windows() int { return max(int(c.measure.Round(time.Second)/time.Second), 1) }

// hostFactor is how much slower than the reference the host ran across a
// window whose host-speed readings were before and after: above 1 on a
// slowed host. The end-to-end metrics are reported at reference host
// speed: rates are multiplied by the factor, times divided by it. On a
// shared machine, other tenants slow every process on it for minutes at a
// time; the factor takes that out, and leaves any change in the code under
// test, which the probe does not run.
func hostFactor(before, after float64) float64 {
	return 2 * refHostSpeed / (before + after)
}

// latencyWindowSamples is the fewest calls a latency window holds on
// average, so its p99 has about ten samples or more beyond it.
const latencyWindowSamples = 1000

// runEndToEnd measures one workload with tracing off: cfg.setups fresh
// daemons (the last one kept), a warm-up, the measured phase, the
// whole-run checks, and for a durable daemon the crash check.
func runEndToEnd(ctx context.Context, l launcher, w *workload, cfg runConfig) (rep *report, err error) {
	rep = newReport(w.name, cfg, 0)
	h := newClient()
	defer h.CloseIdleConnections()
	rs := w.build(cfg.seed)

	var tgt *target
	defer func() {
		if tgt != nil {
			if kerr := tgt.kill(); kerr != nil && err == nil {
				err = kerr
			}
		}
	}()
	// Host speed is read right before each set-up and around each
	// measured window; see hostFactor.
	var setups, rawSetups []float64
	var dataDir string
	for i := range cfg.setups {
		if tgt != nil {
			if err := tgt.stop(); err != nil {
				return nil, fmt.Errorf("stop set-up daemon: %w", err)
			}
			tgt = nil
			h.CloseIdleConnections()
			if err := os.RemoveAll(dataDir); err != nil {
				return nil, err
			}
		}
		dataDir = filepath.Join(cfg.dir, fmt.Sprintf("%s-%d", w.name, i))
		speed := hostSpeed()
		t0 := time.Now()
		if tgt, err = l.start(ctx, w.daemon, dataDir); err != nil {
			return nil, err
		}
		if err := rs.prefill(ctx, h, tgt.base); err != nil {
			return nil, err
		}
		rawSetups = append(rawSetups, time.Since(t0).Seconds())
		setups = append(setups, rawSetups[i]/hostFactor(speed, speed))
	}
	rep.Meta.DaemonFlags[w.name] = tgt.args
	rep.phase("setup", time.Duration(sum(rawSetups)*float64(time.Second)))

	workers := rs.workers()
	warm, d := drive(ctx, h, tgt.base, workers, cfg.warm())
	rep.count(warm)
	rep.phase("warmup", d)

	// The measured phase runs as one-second windows, each with the
	// daemon's CPU time read on either side and the host speed read
	// before and after it.
	n := cfg.windows()
	type window struct {
		t       tally
		elapsed time.Duration
		cpu     time.Duration
		factor  float64
	}
	wins := make([]window, n)
	speeds := []float64{hostSpeed()}
	var meas tally
	var measured time.Duration
	for k := range wins {
		cpu0, err := procCPU(tgt.pid)
		if err != nil {
			return nil, err
		}
		t, el := drive(ctx, h, tgt.base, workers, cfg.measure/time.Duration(n))
		cpu1, err := procCPU(tgt.pid)
		if err != nil {
			return nil, err
		}
		speeds = append(speeds, hostSpeed())
		wins[k] = window{t: t, elapsed: el, cpu: cpu1 - cpu0, factor: hostFactor(speeds[k], speeds[k+1])}
		meas.merge(&t)
		measured += el
	}
	rss, err := peakRSS(tgt.pid)
	if err != nil {
		return nil, err
	}
	rep.count(meas)
	rep.phase("measure", measured)
	if meas.ops == 0 {
		return nil, fmt.Errorf("no operation succeeded: %v", meas.failures)
	}

	t0 := time.Now()
	if err := rs.verify(ctx, h, tgt.base); err != nil {
		rep.checkFailed(fmt.Errorf("verify: %w", err))
	}
	rep.phase("verify", time.Since(t0))
	if w.daemon.durable {
		t0 = time.Now()
		recovery, cerr := crashCheck(ctx, l, w, rs, h, &tgt, dataDir)
		if cerr != nil {
			rep.checkFailed(fmt.Errorf("crash check: %w", cerr))
		}
		rep.phase("crash-check", time.Since(t0))
		rep.Ungated["durable.recovery_s"] = metric{recovery.Seconds(), "s"}
	}
	if tgt != nil {
		err := tgt.stop()
		tgt = nil
		if err != nil {
			return nil, fmt.Errorf("stop daemon: %w", err)
		}
	}

	// Each metric is the median over windows of the window's value at
	// reference host speed, so a burst of interference from outside the
	// benchmark moves a few windows, not the result. A latency window
	// merges consecutive one-second windows so that the windows hold
	// latencyWindowSamples calls or more on average. The raw values are
	// kept in the result file next to the host speeds.
	var thr, cpuPerOp, rawThr, rawCPU []float64
	for _, win := range wins {
		if win.t.ops > 0 {
			rawThr = append(rawThr, float64(win.t.ops)/win.elapsed.Seconds())
			rawCPU = append(rawCPU, float64(win.cpu.Microseconds())/float64(win.t.ops))
			thr = append(thr, rawThr[len(rawThr)-1]*win.factor)
			cpuPerOp = append(cpuPerOp, rawCPU[len(rawCPU)-1]/win.factor)
		}
	}
	lat := latencies(meas.done, latencySeries)
	groups := min(max(len(lat)/latencyWindowSamples, 1), n)
	var p50, p99, rawP50, rawP99 []float64
	for g := range groups {
		var gl []float64
		factor := 0.0
		members := wins[g*n/groups : (g+1)*n/groups]
		for _, win := range members {
			gl = append(gl, latencies(win.t.done, latencySeries)...)
			factor += win.factor / float64(len(members))
		}
		if len(gl) > 0 {
			slices.Sort(gl)
			rawP50, rawP99 = append(rawP50, quantile(gl, 0.5)), append(rawP99, quantile(gl, 0.99))
			p50, p99 = append(p50, quantile(gl, 0.5)/factor), append(p99, quantile(gl, 0.99)/factor)
		}
	}
	rep.Windows = map[string][]float64{
		"throughput_ops_s": thr, "cpu_us_per_op": cpuPerOp, "latency_p50_us": p50, "latency_p99_us": p99, "setup_s": setups,
		"raw_throughput_ops_s": rawThr, "raw_cpu_us_per_op": rawCPU, "raw_latency_p50_us": rawP50, "raw_latency_p99_us": rawP99,
		"raw_setup_s": rawSetups, "host_speed_bytes_s": speeds,
	}
	rep.set("setup_s", median(setups))
	rep.set("throughput_ops_s", median(thr))
	rep.set("latency_p50_us", median(p50))
	rep.set("latency_p99_us", median(p99))
	rep.set("cpu_us_per_op", median(cpuPerOp))
	rep.set("peak_rss_mb", float64(rss)/(1<<20))
	rep.Ungated["raw_setup_s"] = metric{median(rawSetups), "s"}
	rep.Ungated["raw_throughput_ops_s"] = metric{median(rawThr), "1/s"}
	rep.Ungated["raw_latency_p50_us"] = metric{median(rawP50), "us"}
	rep.Ungated["raw_latency_p99_us"] = metric{median(rawP99), "us"}
	rep.Ungated["raw_cpu_us_per_op"] = metric{median(rawCPU), "us"}
	rep.Ungated["host_speed_bytes_s"] = metric{median(speeds), "bytes/s"}
	all := sortedCopy(lat)
	rep.Ungated["latency_p999_us"] = metric{quantile(all, 0.999), "us"}
	rep.Ungated["latency_samples"] = metric{float64(len(all)), "count"}
	rep.Ungated["error_frac"] = metric{float64(rep.Failed) / float64(max(rep.Attempted, 1)), "frac"}
	return rep, rep.finish(endToEnd)
}

// crashCheck SIGKILLs the daemon, restarts it on the same data directory
// and requires exactly the acknowledged live placements to come back, each
// under its own id. It returns the restart-to-ready time. *tgt is replaced
// by the restarted daemon, which the caller stops.
func crashCheck(ctx context.Context, l launcher, w *workload, rs runState, h *http.Client, tgt **target, dataDir string) (time.Duration, error) {
	live := rs.live()
	err := (*tgt).kill()
	*tgt = nil
	if err != nil {
		return 0, err
	}
	h.CloseIdleConnections()
	t0 := time.Now()
	if *tgt, err = l.start(ctx, w.daemon, dataDir); err != nil {
		return 0, fmt.Errorf("restart: %w", err)
	}
	recovery := time.Since(t0)
	n, err := placements(ctx, h, (*tgt).base)
	if err != nil {
		return recovery, err
	}
	if n != len(live) {
		return recovery, fmt.Errorf("recovered %d placements, acknowledged %d", n, len(live))
	}
	for _, id := range live {
		status, b, err := post(ctx, h, (*tgt).base+"/v1/cluster/remove", removeBody(id))
		if err == nil {
			err = expectOK(status, b)
		}
		if err != nil {
			return recovery, fmt.Errorf("remove recovered %s: %w", id, err)
		}
	}
	return recovery, nil
}

// socketPhase is what a trace run's short socket phase measured for one
// workload.
type socketPhase struct {
	d         scrape // the daemon's /metrics change across the phase
	t         tally
	elapsed   time.Duration
	clientCPU time.Duration
	recovery  time.Duration // durable daemons only
}

func (p socketPhase) clientCPUPerOp() float64 {
	return float64(p.clientCPU.Microseconds()) / float64(max(p.t.ops, 1))
}

// runTrace measures the per-layer metrics of every workload: for each, a
// short socket phase against a fresh daemon (its /metrics deltas and the
// client's own timings), then the in-process ladder on the same inputs.
// cfg.measure is split evenly across the eight phases.
func runTrace(ctx context.Context, l launcher, cfg runConfig) (*report, error) {
	rep := newReport("all", cfg, 1)
	slice := cfg.measure / time.Duration(2*len(workloads))
	for _, w := range workloads {
		set := func(name string, v float64) { rep.set(w.name+"."+name, v) }
		t0 := time.Now()
		p, err := traceSocket(ctx, l, w, cfg, slice, rep)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		w.layers(p, set)
		rep.phase(w.name+" socket", time.Since(t0))

		t0 = time.Now()
		lad := &ladder{budget: slice, dir: filepath.Join(cfg.dir, w.name+"-ladder"), set: set, origin: t0}
		if err := os.MkdirAll(lad.dir, 0o755); err != nil {
			return nil, err
		}
		if err := w.ladder(ctx, lad, cfg.seed); err != nil {
			return nil, fmt.Errorf("%s ladder: %w", w.name, err)
		}
		rep.Attempted += lad.calls
		for _, s := range lad.spans {
			s.Rung = w.name + "." + s.Rung
			rep.Spans = append(rep.Spans, s)
		}
		rep.phase(w.name+" ladder", time.Since(t0))
	}
	return rep, rep.finish(perLayerDefs())
}

// traceSocket drives one workload for d against a fresh daemon and reads
// the daemon's counters across the phase.
func traceSocket(ctx context.Context, l launcher, w *workload, cfg runConfig, d time.Duration, rep *report) (p socketPhase, err error) {
	h := newClient()
	defer h.CloseIdleConnections()
	rs := w.build(cfg.seed)
	dataDir := filepath.Join(cfg.dir, w.name+"-trace")
	tgt, err := l.start(ctx, w.daemon, dataDir)
	if err != nil {
		return p, err
	}
	defer func() {
		if tgt != nil {
			if serr := tgt.stop(); serr != nil && err == nil {
				err = serr
			}
		}
	}()
	rep.Meta.DaemonFlags[w.name] = tgt.args
	if err := rs.prefill(ctx, h, tgt.base); err != nil {
		return p, err
	}
	workers := rs.workers()
	warm, _ := drive(ctx, h, tgt.base, workers, d/5)
	rep.count(warm)

	before, err := readMetrics(ctx, h, tgt.base)
	if err != nil {
		return p, err
	}
	cpu0 := selfCPU()
	p.t, p.elapsed = drive(ctx, h, tgt.base, workers, d)
	p.clientCPU = selfCPU() - cpu0
	after, err := readMetrics(ctx, h, tgt.base)
	if err != nil {
		return p, err
	}
	p.d = after.since(before)
	rep.count(p.t)
	if p.t.ops == 0 {
		return p, fmt.Errorf("no operation succeeded: %v", p.t.failures)
	}
	if err := rs.verify(ctx, h, tgt.base); err != nil {
		rep.checkFailed(fmt.Errorf("verify: %w", err))
	}
	if w.daemon.durable {
		if p.recovery, err = crashCheck(ctx, l, w, rs, h, &tgt, dataDir); err != nil {
			rep.checkFailed(fmt.Errorf("crash check: %w", err))
		}
	}
	return p, nil
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}
