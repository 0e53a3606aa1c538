package plan

import (
	"testing"

	"hrtsched/internal/sim"
)

// memoBenchSet is a large admitted set: many tasks, dividing periods,
// modest utilization so every admission question is admitted.
func memoBenchSet() TaskSet {
	periods := []int64{5_000_000, 10_000_000, 20_000_000, 40_000_000}
	set := make(TaskSet, 0, 40)
	for i := 0; i < 40; i++ {
		p := periods[i%len(periods)]
		set = append(set, Task{PeriodNs: p, SliceNs: p / 100})
	}
	return set
}

func TestMemoAnalyzeBitIdenticalAndCached(t *testing.T) {
	m := NewMemo(specPhi79, 8)
	set := memoBenchSet()
	want := Analyze(specPhi79, set.Canonical())

	if got := m.Analyze(set); got != want {
		t.Fatalf("memo miss verdict diverged:\n got %+v\nwant %+v", got, want)
	}
	// A permuted copy of the same multiset must hit and answer the same
	// stored verdict, bit for bit.
	perm := append(TaskSet(nil), set...)
	perm[0], perm[len(perm)-1] = perm[len(perm)-1], perm[0]
	if got := m.Analyze(perm); got != want {
		t.Fatalf("memo hit verdict diverged:\n got %+v\nwant %+v", got, want)
	}
	st := m.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 miss / 1 hit / 1 entry", st)
	}
}

func TestMemoLRUEviction(t *testing.T) {
	m := NewMemo(specPhi79, 2)
	a := TaskSet{{PeriodNs: 100_000, SliceNs: 10_000}}
	b := TaskSet{{PeriodNs: 200_000, SliceNs: 10_000}}
	c := TaskSet{{PeriodNs: 400_000, SliceNs: 10_000}}
	m.Analyze(a)
	m.Analyze(b)
	m.Analyze(a) // refresh a; b is now oldest
	m.Analyze(c) // evicts b
	m.Analyze(a)
	if st := m.Stats(); st.Entries != 2 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 2 entries / 2 hits", st)
	}
	m.Analyze(b) // must be a miss again
	if st := m.Stats(); st.Misses != 4 {
		t.Fatalf("stats = %+v, want 4 misses after re-analyzing evicted set", st)
	}
}

// fnvCollision is a pair of distinct one-task sets with the same 64-bit
// digest. A distinguished-point search over one-task sets (period
// 2^32 + x>>32, slice x mod 2^32 for a 64-bit x) found it after about
// 5e9 digest evaluations, a minute on two cores.
var fnvCollision = [2]TaskSet{
	{{PeriodNs: 7_407_247_001, SliceNs: 3_395_736_401}},
	{{PeriodNs: 7_815_327_059, SliceNs: 2_963_696_194}},
}

func TestMemoDigestCollisionMisses(t *testing.T) {
	a, b := fnvCollision[0], fnvCollision[1]
	if a.Digest() != b.Digest() {
		t.Fatalf("digests differ: %x vs %x", a.Digest(), b.Digest())
	}
	want := Analyze(specPhi79, b)
	if want == Analyze(specPhi79, a) {
		t.Fatal("the colliding sets share a verdict, so an aliased hit would go unseen")
	}
	m := NewMemo(specPhi79, 8)
	m.Analyze(a)
	if got := m.Analyze(b); got != want {
		t.Fatalf("colliding set answered from the other set's entry:\n got %+v\nwant %+v", got, want)
	}
	if st := m.Stats(); st.Hits != 0 || st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 misses and b's entry replacing a's", st)
	}
	if got := m.Analyze(b); got != want {
		t.Fatalf("repeat of b diverged:\n got %+v\nwant %+v", got, want)
	}
	if st := m.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want the repeat of b to hit", st)
	}
}

// TestMemoAndBatchPropertyRandomSequences is the cached/batched
// counterpart of TestIncrementalPropertyRandomSequences: random
// mutation sequences (propertySequences) driven through a committed
// engine, where every step's answers from (a) the Memo cache, (b) the
// evaluate-only EvaluateGang/TryGangBatch table path, and (c) the
// Memo's lazily built capacity table are compared against the serial
// uncached Analyze and Capacity oracles.
// Under -tags planverify every table answer is additionally
// self-checked inside the engine.
func TestMemoAndBatchPropertyRandomSequences(t *testing.T) {
	sequences := propertySequences()
	periods := []int64{50_000, 100_000, 200_000, 400_000, 1_000_000, 999_983}
	rng := sim.NewRand(0x8ba7c)

	memo := NewMemo(specPhi79, 64) // small: exercises eviction across sequences
	for seq := 0; seq < sequences; seq++ {
		r := rng.Split()
		eng := NewIncremental(specPhi79)
		mirror := TaskSet{}
		ops := 6 + r.Intn(5)
		for op := 0; op < ops; op++ {
			roll := r.Float64()
			switch {
			case roll < 0.15 && len(mirror) > 1:
				// RemoveGang keeps the committed set moving so batch
				// probes run against post-removal tables too.
				k := 1 + r.Intn(2)
				gang := TaskSet{}
				for _, idx := range r.Perm(len(mirror))[:k] {
					gang = append(gang, mirror[idx])
				}
				if _, ok := eng.RemoveGang(gang); !ok {
					t.Fatalf("seq %d: RemoveGang unmatched", seq)
				}
				mirror = removeFirstEqual(mirror, gang)
			default:
				gang := TaskSet{randTask(r, periods)}
				for r.Float64() < 0.25 {
					gang = append(gang, randTask(r, periods))
				}

				// (b) evaluate-only single probe vs oracle.
				candidate := append(append(TaskSet(nil), mirror...), gang...)
				want := Analyze(specPhi79, candidate)
				if got := eng.EvaluateGang(gang); got != want {
					t.Fatalf("seq %d op %d: EvaluateGang diverged\n got %+v\nwant %+v",
						seq, op, got, want)
				}

				// (b) batch probe: several candidates against one table.
				gangs := []TaskSet{gang, {randTask(r, periods)}, nil}
				batch := eng.TryGangBatch(gangs)
				for i, g := range gangs {
					cand := append(append(TaskSet(nil), mirror...), g...)
					if w := Analyze(specPhi79, cand); batch[i] != w {
						t.Fatalf("seq %d op %d: TryGangBatch[%d] diverged\n got %+v\nwant %+v",
							seq, op, i, batch[i], w)
					}
				}

				// (a) memo answers for the candidate, twice: the second
				// call must be a cache hit and still bit-identical to the
				// uncached oracle on the canonical ordering.
				wantCanon := Analyze(specPhi79, candidate.Canonical())
				if got := memo.Analyze(candidate); got != wantCanon {
					t.Fatalf("seq %d op %d: memo.Analyze diverged\n got %+v\nwant %+v",
						seq, op, got, wantCanon)
				}
				if got := memo.Analyze(candidate); got != wantCanon {
					t.Fatalf("seq %d op %d: memo.Analyze (hit) diverged\n got %+v\nwant %+v",
						seq, op, got, wantCanon)
				}

				if v := eng.TryGang(gang); v.Admit {
					mirror = append(mirror, gang...)
				}
			}

			// Committed-state audit after every mutation.
			if want := Analyze(specPhi79, mirror); eng.Verdict() != want {
				t.Fatalf("seq %d op %d: committed verdict diverged", seq, op)
			}
		}

		// (c) the final state analyzed first, then asked a capacity
		// question: Analyze leaves the entry without a table, the
		// capacity search builds it, and both answer like the uncached
		// functions from the one entry.
		lazy := NewMemo(specPhi79, 4)
		lazy.Analyze(mirror)
		entry := lazy.entries[mirror.Digest()]
		if entry.table != nil {
			t.Fatalf("seq %d: Analyze built a demand table", seq)
		}
		probe := periods[r.Intn(len(periods))]
		if got, want := lazy.Capacity(mirror, probe), Capacity(specPhi79, mirror.Canonical(), probe); got != want {
			t.Fatalf("seq %d: lazy Capacity diverged\n got %+v\nwant %+v", seq, got, want)
		}
		if entry.table == nil {
			t.Fatalf("seq %d: Capacity did not build the demand table", seq)
		}
		if st := lazy.Stats(); st.Misses != 1 || st.Entries != 1 {
			t.Fatalf("seq %d: lazy stats = %+v, want one entry answering both", seq, st)
		}
	}
	if st := memo.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("property run exercised no cache traffic: %+v", st)
	}
}

func TestMemoCapacityMatchesUncached(t *testing.T) {
	m := NewMemo(specPhi79, 8)
	sets := []TaskSet{
		nil,
		{{PeriodNs: 100_000, SliceNs: 25_000}},
		memoBenchSet(),
		{{PeriodNs: 999_983, SliceNs: 500_000}}, // prime period: a row no probe shares
	}
	for i, set := range sets {
		for _, probe := range []int64{0, 50_000, 1_000_000} {
			want := Capacity(specPhi79, set.Canonical(), probe)
			if got := m.Capacity(set, probe); got != want {
				t.Fatalf("set %d probe %d: memo capacity diverged\n got %+v\nwant %+v",
					i, probe, got, want)
			}
			// Repeat: answered from the cached table, still identical.
			if got := m.Capacity(set, probe); got != want {
				t.Fatalf("set %d probe %d: cached capacity diverged", i, probe)
			}
		}
	}
}

// --- zero-alloc gates (the PR 4 engine-gate idiom) ---

// raceEnabled is set by race_enabled_test.go under -race, where
// sync.Pool's deliberate randomization makes AllocsPerRun nonzero and
// instrumentation cost swamps the speedup ratios.
var raceEnabled bool

// skipUnderRace skips an allocation or wall-clock gate under -race; the
// non-race `make ci` perf/test legs keep the gates binding.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("skipping under -race: pool randomization and instrumentation skew the measurement")
	}
}

func TestAnalyzeSteadyStateZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	set := memoBenchSet()
	Analyze(specPhi79, set) // prime the table and digest pools
	allocs := testing.AllocsPerRun(200, func() {
		Analyze(specPhi79, set)
	})
	if allocs != 0 {
		t.Fatalf("Analyze allocates %v per op in steady state, want 0", allocs)
	}
}

func TestDigestZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	set := memoBenchSet()
	set.Digest()
	allocs := testing.AllocsPerRun(1000, func() {
		set.Digest()
	})
	if allocs != 0 {
		t.Fatalf("Digest allocates %v per op in steady state, want 0", allocs)
	}
}

func TestMemoHitZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	m := NewMemo(specPhi79, 8)
	set := memoBenchSet()
	m.Analyze(set)
	allocs := testing.AllocsPerRun(1000, func() {
		m.Analyze(set)
	})
	if allocs != 0 {
		t.Fatalf("memo cache hit allocates %v per op, want 0", allocs)
	}
}

func TestEvaluateGangSteadyStateZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	eng := NewIncremental(specPhi79)
	if v := eng.TryGang(memoBenchSet()); !v.Admit {
		t.Fatalf("bench set unexpectedly rejected: %+v", v)
	}
	gang := TaskSet{{PeriodNs: 10_000_000, SliceNs: 2_000}}
	eng.EvaluateGang(gang) // prime scratch buffers
	allocs := testing.AllocsPerRun(1000, func() {
		eng.EvaluateGang(gang)
	})
	if allocs != 0 {
		t.Fatalf("EvaluateGang allocates %v per op in steady state, want 0", allocs)
	}

	// A committed delta — TryGang then RemoveGang of the same gang, both
	// patched — allocates the same on a 64-task node as on a 384-task
	// one, so per-delta allocation cannot grow with the committed set.
	small, large := deltaCycleAllocs(t, harmonicNode64), deltaCycleAllocs(t, fleetNode384)
	if small != 0 || large != 0 {
		t.Fatalf("TryGang+RemoveGang allocates %v per cycle at 64 tasks and %v at 384, want 0 at both",
			small, large)
	}
}

// deltaSpec is a light-overhead platform on which both delta-node shapes
// admit with headroom.
var deltaSpec = Spec{OverheadNs: 200, UtilizationLimit: 0.99}

// harmonicNode64 is the 64-task harmonic set of the root incremental
// benchmarks — periods 100–800 us, small distinct
// slices — and a dividing-period delta.
func harmonicNode64() (TaskSet, Task) {
	periods := []int64{100_000, 200_000, 400_000, 800_000}
	set := make(TaskSet, 64)
	for i := range set {
		p := periods[i%len(periods)]
		set[i] = Task{PeriodNs: p, SliceNs: p/128 + int64(i)}
	}
	return set, Task{PeriodNs: 400_000, SliceNs: 500}
}

// fleetNode384 is one node of the fleet-batch workload: 384 single-task
// sets at a 100 ms period with 50–150 us slices, and a delta of the same
// shape whose slice lands mid-way through the canonical order.
func fleetNode384() (TaskSet, Task) {
	set := make(TaskSet, 384)
	for i := range set {
		set[i] = Task{PeriodNs: 100_000_000, SliceNs: 50_000 + int64(i*7919)%100_000}
	}
	return set, Task{PeriodNs: 100_000_000, SliceNs: 99_999}
}

// deltaEngine commits a node's set and returns it with its delta gang.
func deltaEngine(tb testing.TB, node func() (TaskSet, Task)) (*Incremental, TaskSet) {
	tb.Helper()
	set, delta := node()
	eng := NewIncremental(deltaSpec)
	if v := eng.Restore(set); !v.Admit {
		tb.Fatalf("%d-task node rejected: %+v", len(set), v)
	}
	return eng, TaskSet{delta}
}

// deltaCycleAllocs measures the steady-state allocations of one patched
// TryGang + RemoveGang cycle on the node, after checking that both halves
// take the patch path.
func deltaCycleAllocs(t *testing.T, node func() (TaskSet, Task)) float64 {
	t.Helper()
	eng, gang := deltaEngine(t, node)
	before := eng.Stats()
	if v := eng.TryGang(gang); !v.Admit {
		t.Fatalf("delta rejected: %+v", v)
	}
	if _, ok := eng.RemoveGang(gang); !ok {
		t.Fatal("delta not found for removal")
	}
	if s := eng.Stats(); s.IncrementalOps != before.IncrementalOps+2 || s.FullAnalyses != before.FullAnalyses {
		t.Fatalf("delta cycle left the patch path: %+v -> %+v", before, s)
	}
	return testing.AllocsPerRun(200, func() {
		eng.TryGang(gang)
		eng.RemoveGang(gang)
	})
}

// BenchmarkIncrementalDelta384 is one committed delta cycle — a patched
// TryGang plus RemoveGang — on a fleet-batch-shaped 384-task node.
func BenchmarkIncrementalDelta384(b *testing.B) {
	eng, gang := deltaEngine(b, fleetNode384)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if v := eng.TryGang(gang); !v.Admit {
			b.Fatalf("delta rejected: %+v", v)
		}
		if _, ok := eng.RemoveGang(gang); !ok {
			b.Fatal("delta not found for removal")
		}
	}
}

// --- repeated-admission and batch-probe microbenchmarks (BENCH_PR8) ---

var verdictSink Verdict

func BenchmarkAnalyzeRepeatUncached(b *testing.B) {
	set := memoBenchSet()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		verdictSink = Analyze(specPhi79, set)
	}
}

func BenchmarkAnalyzeRepeatMemo(b *testing.B) {
	set := memoBenchSet()
	m := NewMemo(specPhi79, 8)
	m.Analyze(set)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verdictSink = m.Analyze(set)
	}
}

func BenchmarkGangProbeUncached(b *testing.B) {
	existing := memoBenchSet()
	gang := TaskSet{{PeriodNs: 10_000_000, SliceNs: 2_000}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		verdictSink = AnalyzeGang(specPhi79, existing, gang)
	}
}

func BenchmarkGangProbeCurve(b *testing.B) {
	eng := NewIncremental(specPhi79)
	eng.Restore(memoBenchSet())
	gang := TaskSet{{PeriodNs: 10_000_000, SliceNs: 2_000}}
	eng.EvaluateGang(gang)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verdictSink = eng.EvaluateGang(gang)
	}
}

// TestRepeatAdmissionTakesMemoAndCurvePaths: a repeated admission is
// answered from the memo — one miss, then only hits, none allocating —
// and a gang probe against a committed set patches the retained table:
// one incremental op, no full analysis.
func TestRepeatAdmissionTakesMemoAndCurvePaths(t *testing.T) {
	const repeats = 50
	m := NewMemo(specPhi79, 8)
	set := memoBenchSet()
	for i := 0; i < repeats; i++ {
		m.Analyze(set)
	}
	if st := m.Stats(); st.Misses != 1 || st.Hits != repeats-1 {
		t.Fatalf("memo stats = %+v, want 1 miss and %d hits", st, repeats-1)
	}
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(100, func() { m.Analyze(set) }); allocs != 0 {
			t.Fatalf("memo hit allocates %v per op, want 0", allocs)
		}
	}

	eng := NewIncremental(specPhi79)
	eng.Restore(memoBenchSet())
	before := eng.Stats()
	if v := eng.EvaluateGang(TaskSet{{PeriodNs: 10_000_000, SliceNs: 2_000}}); !v.Admit {
		t.Fatalf("gang probe rejected: %+v", v)
	}
	if after := eng.Stats(); after.IncrementalOps != before.IncrementalOps+1 || after.FullAnalyses != before.FullAnalyses {
		t.Fatalf("gang probe left the table path: %+v -> %+v", before, after)
	}
}
