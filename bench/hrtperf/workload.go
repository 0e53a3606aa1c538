package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"

	"hrtsched/internal/machine"
	"hrtsched/internal/plan"
	"hrtsched/internal/serve"
	"hrtsched/internal/whatif"
)

// conns is the number of closed-loop client connections. Every caller of
// the admission service blocks on its verdict or ack, so a closed loop is
// the honest shape; two connections keep the generator within one of the
// two cores the benchmark host has.
const conns = 2

// spec is the analysis spec hrtd uses with its default flags
// (-machine phi -util 0.99); every in-process reference verdict uses it.
var spec = serve.SpecFor(machine.PhiKNL(), 0.99)

// periodMenuUs are the task periods the generators draw from. They all
// divide 1 ms, so hyperperiods stay at or below 1 ms and one analysis
// stays a bounded unit of work whatever the seed.
var periodMenuUs = []int64{100, 200, 250, 500, 1000}

// series says which latency sample set a call's round trip lands in.
type series uint8

const (
	latencySeries series = iota // the workload's latency_p* metrics
	removeSeries                // fleet-batch removes (serve.remove_p50_us)
)

// call is one HTTP request a generator wants sent, and how to judge it.
type call struct {
	path   string
	body   []byte
	ops    int    // queries or mutations the call performs
	series series // where its latency is recorded
	work   uint64 // simulator engine steps the reply reports (whatif only)
	// check inspects the reply; a non-nil error fails the call's ops.
	check func(status int, body []byte) error
}

// A worker is one connection's deterministic request stream. next assumes
// every earlier call succeeded, so the stream depends only on the seed.
type worker interface {
	next() call
}

// daemonSpec is the hrtd configuration a workload runs against.
type daemonSpec struct {
	nodes   int
	groups  int
	policy  string
	durable bool
}

// args renders the daemon flags; dataDir is used only when durable.
func (d daemonSpec) args(dataDir string) []string {
	a := []string{"-nodes", strconv.Itoa(d.nodes)}
	if d.groups > 1 {
		a = append(a, "-shard-groups", strconv.Itoa(d.groups))
	}
	if d.policy != "" {
		a = append(a, "-policy", d.policy)
	}
	if d.durable {
		a = append(a, "-data-dir", dataDir)
	}
	return a
}

// runState is one run's generated inputs plus the state its checks need.
type runState interface {
	// workers returns one request stream per connection.
	workers() []worker
	// prefill brings a freshly started daemon to the workload's steady
	// state. It is part of set-up and must work on any fresh daemon.
	prefill(ctx context.Context, h *http.Client, base string) error
	// verify runs the checks that need the whole run: deferred reference
	// verdicts, finishing an open round, final daemon state.
	verify(ctx context.Context, h *http.Client, base string) error
	// live lists the placement ids the daemon has acknowledged and not
	// removed; the crash check expects exactly these after a restart.
	live() []string
}

// workload is one traffic mix against one daemon configuration.
type workload struct {
	name   string
	why    string
	daemon daemonSpec
	build  func(seed uint64) runState
	// layers turns a trace run's socket phase into per-layer metrics, and
	// ladder times calls into each layer's public functions on the
	// workload's own inputs (see ladder.go).
	layers func(p socketPhase, set func(name string, v float64))
	ladder func(ctx context.Context, l *ladder, seed uint64) error
}

// The cluster daemons place worst-fit, which spreads sets evenly over the
// nodes: about 2 live sets per node for place-durable, 384 for fleet-batch.
var (
	queryDaemon   = daemonSpec{nodes: 0}
	durableDaemon = daemonSpec{nodes: 4, policy: "worst-fit", durable: true}
	fleetDaemon   = daemonSpec{nodes: 8, groups: 4, policy: "worst-fit"}
)

var workloads = []*workload{
	{
		name:   "admit-query",
		why:    "the read path: HTTP, shard queue, verdict LRU and plan; a cache-resident pool plus a unique stream that overflows the LRU",
		daemon: queryDaemon,
		build:  func(seed uint64) runState { return newAdmitQuery(seed) },
		layers: layersAdmitQuery,
		ladder: ladderAdmitQuery,
	},
	{
		name:   "place-durable",
		why:    "the write path: every ack waits on a WAL group commit and fsync, with about 2 sets per node so plan is cheap",
		daemon: durableDaemon,
		build:  func(seed uint64) runState { return newPlaceDurable(seed) },
		layers: layersPlaceDurable,
		ladder: ladderPlaceDurable,
	},
	{
		name:   "fleet-batch",
		why:    "routed batched writes over 4 in-memory shard groups with about 384 sets per node: digest/patch cost and router split/merge",
		daemon: fleetDaemon,
		build:  func(seed uint64) runState { return newFleetBatch(seed) },
		layers: layersFleetBatch,
		ladder: ladderFleetBatch,
	},
	{
		name:   "whatif-simulate",
		why:    "CPU-bound what-if replications through whatif, core and sim; bypasses cache, cluster, WAL and router",
		daemon: queryDaemon,
		build:  func(seed uint64) runState { return newWhatifSim(seed) },
		layers: layersWhatif,
		ladder: ladderWhatif,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// newRand returns the random stream numbered salt of the run seeded with seed.
func newRand(seed, salt uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, salt))
}

func pickPeriodNs(rng *rand.Rand) int64 {
	return periodMenuUs[rng.IntN(len(periodMenuUs))] * 1000
}

// writeTasks appends a task list in the wire form of plan.TaskSet.
func writeTasks(b *bytes.Buffer, set plan.TaskSet) {
	b.WriteByte('[')
	for i, t := range set {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, `{"period_ns":%d,"slice_ns":%d}`, t.PeriodNs, t.SliceNs)
	}
	b.WriteByte(']')
}

func analyzeBody(set plan.TaskSet) []byte {
	var b bytes.Buffer
	b.WriteString(`{"tasks":`)
	writeTasks(&b, set)
	b.WriteByte('}')
	return b.Bytes()
}

func placeBody(id string, set plan.TaskSet) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"id":%q,"tasks":`, id)
	writeTasks(&b, set)
	b.WriteByte('}')
	return b.Bytes()
}

func removeBody(id string) []byte { return []byte(fmt.Sprintf(`{"id":%q}`, id)) }

func placeBatchBody(ids []string, sets []plan.TaskSet) []byte {
	var b bytes.Buffer
	b.WriteString(`{"items":[`)
	for i := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"id":%q,"tasks":`, ids[i])
		writeTasks(&b, sets[i])
		b.WriteByte('}')
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

func expectOK(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	return nil
}

// ---- admit-query ----------------------------------------------------------

const (
	admitPoolSize  = 64
	admitPoolShare = 0.8
)

// admitItem is one pool set with its body and reference verdict.
type admitItem struct {
	set  plan.TaskSet
	body []byte
	want plan.Verdict
}

// answered is a unique set and the verdict the daemon gave for it; the
// reference is computed after the measured phase so the client does not
// spend CPU on analyses while it measures.
type answered struct {
	set plan.TaskSet
	got wireVerdict
	ok  bool
}

type wireVerdict struct {
	Admit  bool   `json:"admit"`
	Reason string `json:"reason"`
	Digest uint64 `json:"digest"`
}

type admitQuery struct {
	pool    []admitItem
	streams []*admitStream
}

type admitStream struct {
	rng     *rand.Rand
	pool    []admitItem
	uniques []answered
}

// poolSet is the i-th popular set: 1-3 tasks, slices 10-30% of period.
func poolSet(rng *rand.Rand, i int) plan.TaskSet {
	set := make(plan.TaskSet, 1+i%3)
	for t := range set {
		p := pickPeriodNs(rng)
		set[t] = plan.Task{PeriodNs: p, SliceNs: p/10 + rng.Int64N(p/5)}
	}
	return set
}

// uniqueSet draws a 2-4 task set whose utilization stays under 0.9, so the
// bound admits it and the analysis runs the hyperperiod simulation.
func uniqueSet(rng *rand.Rand) plan.TaskSet {
	n := 2 + rng.IntN(3)
	hi := 0.9 / float64(n)
	set := make(plan.TaskSet, n)
	for t := range set {
		p := pickPeriodNs(rng)
		u := 0.05 + rng.Float64()*(hi-0.05)
		set[t] = plan.Task{PeriodNs: p, SliceNs: max(1, int64(u*float64(p)))}
	}
	return set
}

func newAdmitQuery(seed uint64) *admitQuery {
	rng := newRand(seed, 1)
	q := &admitQuery{pool: make([]admitItem, admitPoolSize)}
	for i := range q.pool {
		set := poolSet(rng, i)
		q.pool[i] = admitItem{set: set, body: analyzeBody(set), want: plan.Analyze(spec, set)}
	}
	for w := range conns {
		q.streams = append(q.streams, &admitStream{rng: newRand(seed, 100+uint64(w)), pool: q.pool})
	}
	return q
}

// nextSet draws the stream's next query: a pool set (returned with its
// pool entry) with probability admitPoolShare, else a fresh unique set.
func (s *admitStream) nextSet() (set plan.TaskSet, body []byte, pool *admitItem) {
	if s.rng.Float64() < admitPoolShare {
		it := &s.pool[s.rng.IntN(len(s.pool))]
		return it.set, it.body, it
	}
	set = uniqueSet(s.rng)
	return set, analyzeBody(set), nil
}

func (s *admitStream) next() call {
	set, body, it := s.nextSet()
	c := call{path: "/v1/analyze", body: body, ops: 1, series: latencySeries}
	if it != nil {
		c.check = func(status int, b []byte) error {
			got, err := decodeVerdict(status, b)
			if err != nil {
				return err
			}
			return sameVerdict(got, it.want)
		}
		return c
	}
	idx := len(s.uniques)
	s.uniques = append(s.uniques, answered{set: set})
	c.check = func(status int, b []byte) error {
		got, err := decodeVerdict(status, b)
		if err != nil {
			return err
		}
		s.uniques[idx].got, s.uniques[idx].ok = got, true
		return nil
	}
	return c
}

func decodeVerdict(status int, b []byte) (wireVerdict, error) {
	var v wireVerdict
	if err := expectOK(status, b); err != nil {
		return v, err
	}
	if err := json.Unmarshal(b, &v); err != nil {
		return v, fmt.Errorf("decode verdict: %w", err)
	}
	return v, nil
}

func sameVerdict(got wireVerdict, want plan.Verdict) error {
	if got.Admit != want.Admit || got.Reason != want.Reason.String() || got.Digest != want.Digest {
		return fmt.Errorf("verdict admit=%v reason=%s digest=%d, want admit=%v reason=%s digest=%d",
			got.Admit, got.Reason, got.Digest, want.Admit, want.Reason, want.Digest)
	}
	return nil
}

func (q *admitQuery) workers() []worker {
	out := make([]worker, len(q.streams))
	for i, s := range q.streams {
		out[i] = s
	}
	return out
}

func (q *admitQuery) prefill(context.Context, *http.Client, string) error { return nil }

func (q *admitQuery) verify(context.Context, *http.Client, string) error {
	for _, s := range q.streams {
		for _, u := range s.uniques {
			if !u.ok {
				continue
			}
			if err := sameVerdict(u.got, plan.Analyze(spec, u.set)); err != nil {
				return fmt.Errorf("unique set %v: %w", u.set, err)
			}
		}
	}
	return nil
}

func (q *admitQuery) live() []string { return nil }

// ---- place-durable --------------------------------------------------------

// durableRing is how many live placements each connection keeps.
const durableRing = 4

type placeDurable struct {
	streams []*ringStream
}

type ringStream struct {
	rng  *rand.Rand
	conn int
	size int
	n    int
	ring []string
	sets []plan.TaskSet // parallel to ring
}

func newRingStream(seed uint64, conn, size int) *ringStream {
	return &ringStream{rng: newRand(seed, 200+uint64(conn)), conn: conn, size: size}
}

func newPlaceDurable(seed uint64) *placeDurable {
	p := &placeDurable{}
	for w := range conns {
		p.streams = append(p.streams, newRingStream(seed, w, durableRing))
	}
	return p
}

// mutation is one step of a ring stream: a place of set under id, or,
// when remove is set, the removal of the live placement id holding set.
type mutation struct {
	remove bool
	id     string
	set    plan.TaskSet
}

// nextOp removes the oldest live placement once the ring is full, else
// places a new single-task set with a slice of 5-15% of its period.
func (s *ringStream) nextOp() mutation {
	if len(s.ring) == s.size {
		m := mutation{remove: true, id: s.ring[0], set: s.sets[0]}
		s.ring, s.sets = s.ring[1:], s.sets[1:]
		return m
	}
	s.n++
	p := pickPeriodNs(s.rng)
	m := mutation{id: fmt.Sprintf("d%d-%d", s.conn, s.n), set: plan.TaskSet{{PeriodNs: p, SliceNs: p/20 + s.rng.Int64N(p/10)}}}
	s.ring, s.sets = append(s.ring, m.id), append(s.sets, m.set)
	return m
}

// next sends nextOp: one mutation per call.
func (s *ringStream) next() call {
	m := s.nextOp()
	if m.remove {
		return call{path: "/v1/cluster/remove", body: removeBody(m.id), ops: 1, series: latencySeries, check: expectOK}
	}
	return call{path: "/v1/cluster/place", body: placeBody(m.id, m.set), ops: 1, series: latencySeries, check: checkPlaced}
}

func checkPlaced(status int, b []byte) error {
	if err := expectOK(status, b); err != nil {
		return err
	}
	var res struct {
		Placed bool `json:"placed"`
	}
	if err := json.Unmarshal(b, &res); err != nil {
		return fmt.Errorf("decode place result: %w", err)
	}
	if !res.Placed {
		return fmt.Errorf("placement rejected: %s", bytes.TrimSpace(b))
	}
	return nil
}

func (p *placeDurable) workers() []worker {
	out := make([]worker, len(p.streams))
	for i, s := range p.streams {
		out[i] = s
	}
	return out
}

func (p *placeDurable) prefill(context.Context, *http.Client, string) error { return nil }

func (p *placeDurable) verify(context.Context, *http.Client, string) error { return nil }

func (p *placeDurable) live() []string {
	var ids []string
	for _, s := range p.streams {
		ids = append(ids, s.ring...)
	}
	return ids
}

// ---- fleet-batch ----------------------------------------------------------

const (
	fleetPrefill      = 3072
	fleetPrefillBatch = 512
	fleetBatchItems   = 64
	fleetPeriodNs     = 100_000_000
)

type fleetBatch struct {
	fill    [][]byte // prefill envelopes
	streams []*batchStream
}

type batchStream struct {
	rng     *rand.Rand
	conn    int
	n       int
	pending []string // placed by the last envelope, not yet removed
}

// tinySet is one fleet set: 100 ms period, 50-150 us slice, so 384 of them
// load a node to about 40% and every candidate admits.
func tinySet(rng *rand.Rand) plan.TaskSet {
	return plan.TaskSet{{PeriodNs: fleetPeriodNs, SliceNs: 50_000 + rng.Int64N(100_000)}}
}

func newFleetBatch(seed uint64) *fleetBatch {
	f := &fleetBatch{}
	rng := newRand(seed, 3)
	for off := 0; off < fleetPrefill; off += fleetPrefillBatch {
		ids := make([]string, fleetPrefillBatch)
		sets := make([]plan.TaskSet, fleetPrefillBatch)
		for i := range ids {
			ids[i] = fmt.Sprintf("fill-%d", off+i)
			sets[i] = tinySet(rng)
		}
		f.fill = append(f.fill, placeBatchBody(ids, sets))
	}
	for w := range conns {
		f.streams = append(f.streams, newBatchStream(seed, w))
	}
	return f
}

func newBatchStream(seed uint64, conn int) *batchStream {
	return &batchStream{rng: newRand(seed, 300+uint64(conn)), conn: conn}
}

// nextBatch draws the stream's next n tiny sets with fresh ids.
func (s *batchStream) nextBatch(n int) ([]string, []plan.TaskSet) {
	ids := make([]string, n)
	sets := make([]plan.TaskSet, n)
	for i := range ids {
		s.n++
		ids[i] = fmt.Sprintf("b%d-%d", s.conn, s.n)
		sets[i] = tinySet(s.rng)
	}
	return ids, sets
}

// next alternates rounds of one place-batch envelope followed by one
// remove per placed item.
func (s *batchStream) next() call {
	if len(s.pending) > 0 {
		id := s.pending[0]
		s.pending = s.pending[1:]
		return call{path: "/v1/cluster/remove", body: removeBody(id), ops: 1, series: removeSeries, check: expectOK}
	}
	ids, sets := s.nextBatch(fleetBatchItems)
	s.pending = ids
	return call{path: "/v1/cluster/place-batch", body: placeBatchBody(ids, sets), ops: fleetBatchItems,
		series: latencySeries, check: checkBatchPlaced(fleetBatchItems)}
}

func checkBatchPlaced(n int) func(int, []byte) error {
	return func(status int, b []byte) error {
		if err := expectOK(status, b); err != nil {
			return err
		}
		var env struct {
			Items []struct {
				ID     string `json:"id"`
				Result *struct {
					Placed bool `json:"placed"`
				} `json:"result"`
				Error *struct {
					Code   string `json:"code"`
					Reason string `json:"reason"`
				} `json:"error"`
			} `json:"items"`
		}
		if err := json.Unmarshal(b, &env); err != nil {
			return fmt.Errorf("decode batch envelope: %w", err)
		}
		if len(env.Items) != n {
			return fmt.Errorf("batch answered %d items, want %d", len(env.Items), n)
		}
		for _, it := range env.Items {
			switch {
			case it.Error != nil:
				return fmt.Errorf("item %s: %s: %s", it.ID, it.Error.Code, it.Error.Reason)
			case it.Result == nil || !it.Result.Placed:
				return fmt.Errorf("item %s not placed", it.ID)
			}
		}
		return nil
	}
}

func (f *fleetBatch) workers() []worker {
	out := make([]worker, len(f.streams))
	for i, s := range f.streams {
		out[i] = s
	}
	return out
}

func (f *fleetBatch) prefill(ctx context.Context, h *http.Client, base string) error {
	check := checkBatchPlaced(fleetPrefillBatch)
	for _, body := range f.fill {
		status, b, err := post(ctx, h, base+"/v1/cluster/place-batch", body)
		if err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
		if err := check(status, b); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
	return nil
}

// verify finishes every open round, then requires the fleet to hold
// exactly the prefill again.
func (f *fleetBatch) verify(ctx context.Context, h *http.Client, base string) error {
	for _, s := range f.streams {
		for len(s.pending) > 0 {
			c := s.next()
			status, b, err := post(ctx, h, base+c.path, c.body)
			if err != nil {
				return fmt.Errorf("finish round: %w", err)
			}
			if err := c.check(status, b); err != nil {
				return fmt.Errorf("finish round: %w", err)
			}
		}
	}
	n, err := placements(ctx, h, base)
	if err != nil {
		return err
	}
	if n != fleetPrefill {
		return fmt.Errorf("status reads %d placements, want %d", n, fleetPrefill)
	}
	return nil
}

func (f *fleetBatch) live() []string { return nil }

// placements reads the placement count from /v1/cluster/status (routed or
// not: both bodies carry it under the same key).
func placements(ctx context.Context, h *http.Client, base string) (int, error) {
	status, b, err := get(ctx, h, base+"/v1/cluster/status")
	if err != nil {
		return 0, fmt.Errorf("status: %w", err)
	}
	if err := expectOK(status, b); err != nil {
		return 0, fmt.Errorf("status: %w", err)
	}
	var st struct {
		Placements int `json:"placements"`
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return 0, fmt.Errorf("decode status: %w", err)
	}
	return st.Placements, nil
}

// ---- whatif-simulate -------------------------------------------------------

const (
	whatifBodies       = 8
	whatifReplications = 16
)

var whatifModels = []string{"wcet", "full-random", "half-random", "random-0.6,1.1:normal"}

// whatifSim cycles each connection through the same 8 scenario bodies.
// Every reply must equal, byte for byte, the report an in-process
// whatif.Run produces for that body — which also makes replies to one
// body identical to each other.
type whatifSim struct {
	reqs    []serve.SimulateRequest
	bodies  [][]byte
	want    [][]byte
	steps   []uint64
	streams []*cycleStream
}

type cycleStream struct {
	s   *whatifSim
	pos int
}

// whatifBody builds the i-th scenario: two tasks on two CPUs at a fixed
// per-index period (so the work mix is the same for every seed), a model
// from the menu, smi-storm on every other body, 16 replications.
func whatifBody(rng *rand.Rand, i int) []byte {
	p := periodMenuUs[i%len(periodMenuUs)] * 1000
	s1 := p/5 + rng.Int64N(p/5)
	s2 := p/10 + rng.Int64N(p/10)
	var faults string
	if i%2 == 0 {
		faults = `"faults":["smi-storm"],`
	}
	return []byte(fmt.Sprintf(`{"scenario":{"name":"perf-%d","cpus":2,"tasks":[`+
		`{"period_ns":%d,"slice_ns":%d,"cpu":0},{"period_ns":%d,"slice_ns":%d,"cpu":1}],`+
		`"model":%q,%s"replications":%d},"seed":%d}`,
		i, p, s1, p, s2, whatifModels[i%len(whatifModels)], faults, whatifReplications, rng.Uint64()>>1))
}

// decodeSimulate parses a body the way the daemon does.
func decodeSimulate(body []byte) (serve.SimulateRequest, error) {
	var req serve.SimulateRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	req.Scenario = req.Scenario.Normalize()
	return req, req.Scenario.Validate()
}

func newWhatifSim(seed uint64) *whatifSim {
	rng := newRand(seed, 4)
	s := &whatifSim{}
	for i := range whatifBodies {
		body := whatifBody(rng, i)
		req, err := decodeSimulate(body)
		if err != nil {
			panic(fmt.Sprintf("hrtperf: generated scenario %d is invalid: %v", i, err))
		}
		rep, err := whatif.Run(req.Scenario, req.Seed)
		if err != nil {
			panic(fmt.Sprintf("hrtperf: scenario %d: %v", i, err))
		}
		want, err := json.Marshal(rep)
		if err != nil {
			panic(fmt.Sprintf("hrtperf: scenario %d: %v", i, err))
		}
		s.reqs = append(s.reqs, req)
		s.bodies = append(s.bodies, body)
		s.want = append(s.want, append(want, '\n'))
		s.steps = append(s.steps, rep.EngineSteps)
	}
	start := newRand(seed, 400)
	for range conns {
		s.streams = append(s.streams, &cycleStream{s: s, pos: start.IntN(whatifBodies)})
	}
	return s
}

func (c *cycleStream) next() call {
	i := c.pos
	c.pos = (c.pos + 1) % whatifBodies
	want := c.s.want[i]
	return call{path: "/v1/simulate", body: c.s.bodies[i], ops: 1, series: latencySeries, work: c.s.steps[i],
		check: func(status int, b []byte) error {
			if err := expectOK(status, b); err != nil {
				return err
			}
			if !bytes.Equal(b, want) {
				return fmt.Errorf("scenario %d: reply differs from the in-process report (%d vs %d bytes)", i, len(b), len(want))
			}
			return nil
		}}
}

func (s *whatifSim) workers() []worker {
	out := make([]worker, len(s.streams))
	for i, c := range s.streams {
		out[i] = c
	}
	return out
}

func (s *whatifSim) prefill(context.Context, *http.Client, string) error { return nil }

func (s *whatifSim) verify(context.Context, *http.Client, string) error { return nil }

func (s *whatifSim) live() []string { return nil }

// describeWorkloads renders the workload table for -h.
func describeWorkloads() string {
	var b strings.Builder
	for _, w := range workloads {
		fmt.Fprintf(&b, "  %-16s %s\n", w.name, w.why)
	}
	return b.String()
}
