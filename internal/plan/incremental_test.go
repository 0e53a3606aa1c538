package plan

import (
	"math"
	"reflect"
	"testing"

	"hrtsched/internal/sim"
)

func TestIncrementalMatchesAnalyzeScripted(t *testing.T) {
	inc := NewIncremental(specPhi79)

	check := func(got Verdict, set TaskSet, ctx string) {
		t.Helper()
		if want := Analyze(specPhi79, set); got != want {
			t.Fatalf("%s: verdict diverges\nincremental %+v\nfull        %+v", ctx, got, want)
		}
	}

	// Empty engine answers like the empty analysis.
	check(inc.Verdict(), nil, "empty")

	a := Task{PeriodNs: 200_000, SliceNs: 40_000}
	check(inc.Add(a), TaskSet{a}, "first add")
	b := Task{PeriodNs: 100_000, SliceNs: 20_000}
	check(inc.Add(b), TaskSet{a, b}, "dividing-period add")

	// A rejected add must leave the committed set unchanged.
	fat := Task{PeriodNs: 100_000, SliceNs: 90_000}
	v := inc.Add(fat)
	if v.Admit {
		t.Fatalf("over-capacity task admitted: %+v", v)
	}
	if got := inc.Tasks(); !reflect.DeepEqual(got, TaskSet{a, b}) {
		t.Fatalf("rejected add mutated state: %v", got)
	}
	check(inc.Verdict(), TaskSet{a, b}, "after rejected add")

	// A period that divides no committed one adds a row to the table.
	c := Task{PeriodNs: 300_000, SliceNs: 30_000}
	check(inc.Add(c), TaskSet{a, b, c}, "new-period add")

	// Removing the only task of a period deletes its row.
	gone, found := inc.Remove(b)
	if !found {
		t.Fatalf("committed task not found for removal")
	}
	check(gone, TaskSet{a, c}, "remove")

	// Removing a task that is not committed is a found=false no-op.
	if _, found := inc.Remove(Task{PeriodNs: 7, SliceNs: 1}); found {
		t.Fatalf("removal of an uncommitted task reported found")
	}
	check(inc.Verdict(), TaskSet{a, c}, "after failed remove")

	// Gang add and all-or-nothing gang removal.
	gang := TaskSet{{PeriodNs: 200_000, SliceNs: 10_000}, {PeriodNs: 600_000, SliceNs: 30_000}}
	check(inc.TryGang(gang), TaskSet{a, c, gang[0], gang[1]}, "gang add")
	if _, found := inc.RemoveGang(TaskSet{gang[0], {PeriodNs: 1, SliceNs: 1}}); found {
		t.Fatalf("partial gang removal must be all-or-nothing")
	}
	check(inc.Verdict(), TaskSet{a, c, gang[0], gang[1]}, "after refused gang removal")
	rem, found := inc.RemoveGang(gang)
	if !found {
		t.Fatalf("committed gang not found for removal")
	}
	check(rem, TaskSet{a, c}, "gang removal")

	// Every delta patched the table: only Restore builds one.
	if s := inc.Stats(); s.FullAnalyses != 0 || s.IncrementalOps != 7 {
		t.Fatalf("stats = %+v, want 7 patched deltas and no full analysis", s)
	}

	// Reset empties the engine.
	inc.Reset()
	if inc.Len() != 0 || len(inc.rows) != 0 {
		t.Fatalf("Reset left state: %d tasks, %d rows", inc.Len(), len(inc.rows))
	}
	check(inc.Verdict(), nil, "after reset")
}

func TestIncrementalBadTaskAndConservativeReasons(t *testing.T) {
	// A near-zero seed, so that a charge can overflow while the
	// utilization bound still holds.
	spec := budgetSpec
	inc := NewIncremental(spec)
	seedTask := Task{PeriodNs: 1 << 50, SliceNs: 1}
	inc.Add(seedTask)

	cases := []struct {
		name   string
		gang   TaskSet
		reason Reason
	}{
		{"slice-over-period", TaskSet{{PeriodNs: 10_000, SliceNs: 20_000}}, BadTask},
		{"zero-period", TaskSet{{PeriodNs: 0, SliceNs: 1}}, BadTask},
		// U′ within rounding of 1: the walk down from L_a runs out of
		// checkpoints.
		{"checkpoint-budget", budgetSet, CheckpointBudget},
		// A charge past math.MaxInt64 exceeds every deadline.
		{"overflow", TaskSet{{PeriodNs: math.MaxInt64, SliceNs: math.MaxInt64 - 1}}, HyperperiodMiss},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := inc.TryGang(tc.gang)
			if want := Analyze(spec, append(TaskSet{seedTask}, tc.gang...)); v != want {
				t.Fatalf("verdict diverges\nincremental %+v\nfull        %+v", v, want)
			}
			if v.Admit || v.Reason != tc.reason {
				t.Fatalf("reason = %v (admit %v), want %v", v.Reason, v.Admit, tc.reason)
			}
			if inc.Len() != 1 {
				t.Fatalf("rejected add mutated state: %v", inc.Tasks())
			}
		})
	}
}

// propertySequences is how many seeded random sequences each property
// suite below runs: the long form (1000) under `make planverify`, a short
// form (the first 100) in plain `go test`. Each suite's short form still
// fails on a seeded off-by-one prefix install, stale removal states and
// a reversed merge comparison; the latest first failure among them is at
// sequence 38.
func propertySequences() int {
	if VerifyEnabled {
		return 1000
	}
	return 100
}

// TestIncrementalPropertyRandomSequences is the planverify property: over
// seeded random add/remove/gang sequences (propertySequences), every
// engine verdict must be equivalent to the full analysis of the same
// candidate set (Analyze, or AnalyzeGang for a gang). Under `-tags
// planverify` the engine additionally self-checks every verdict.
func TestIncrementalPropertyRandomSequences(t *testing.T) {
	sequences := propertySequences()
	periods := []int64{50_000, 100_000, 200_000, 400_000, 1_000_000, 999_983}
	rng := sim.NewRand(0x19c7e)

	var totals IncrementalStats
	var gangRemovals int
	reasons := map[Reason]int{}
	for seq := 0; seq < sequences; seq++ {
		r := rng.Split()
		eng := NewIncremental(specPhi79)
		var mirror TaskSet
		ops := 8 + r.Intn(6)
		for op := 0; op < ops; op++ {
			roll := r.Float64()
			switch {
			case len(mirror) > 1 && roll < 0.12:
				// Multi-task gang removal: evict 2-3 distinct committed
				// instances at once. The engine consumes the first
				// committed instance equal to each member, so mirror that.
				k := 2 + r.Intn(2)
				if k > len(mirror) {
					k = len(mirror)
				}
				gang := TaskSet{}
				for _, i := range r.Perm(len(mirror))[:k] {
					gang = append(gang, mirror[i])
				}
				candidate := removeFirstEqual(mirror, gang)
				v, found := eng.RemoveGang(gang)
				if !found {
					t.Fatalf("seq %d op %d: committed gang %v not found", seq, op, gang)
				}
				if want := Analyze(specPhi79, candidate); v != want {
					t.Fatalf("seq %d op %d: gang-remove verdict diverges\nset  %v\ninc  %+v\nfull %+v",
						seq, op, candidate, v, want)
				}
				mirror = candidate
				gangRemovals++

			case len(mirror) > 0 && roll < 0.35:
				// Remove a random committed task; the engine evicts the
				// first committed instance equal to it, so mirror that.
				victim := mirror[r.Intn(len(mirror))]
				candidate := removeFirstEqual(mirror, TaskSet{victim})
				v, found := eng.Remove(victim)
				if !found {
					t.Fatalf("seq %d op %d: committed task %v not found", seq, op, victim)
				}
				if want := Analyze(specPhi79, candidate); v != want {
					t.Fatalf("seq %d op %d: remove verdict diverges\nset  %v\ninc  %+v\nfull %+v",
						seq, op, candidate, v, want)
				}
				mirror = candidate

			default:
				gang := TaskSet{randTask(r, periods)}
				for r.Float64() < 0.2 { // occasional multi-task gang
					gang = append(gang, randTask(r, periods))
				}
				candidate := append(append(TaskSet{}, mirror...), gang...)
				v := eng.TryGang(gang)
				reasons[v.Reason]++
				if want := AnalyzeGang(specPhi79, mirror, gang); v != want {
					t.Fatalf("seq %d op %d: gang verdict diverges\nset  %v\ninc  %+v\nfull %+v",
						seq, op, candidate, v, want)
				}
				if v.Admit {
					mirror = candidate
				}
			}
		}
		if want := Analyze(specPhi79, mirror); eng.Verdict() != want {
			t.Fatalf("seq %d: final committed verdict diverges\nset  %v\ninc  %+v\nfull %+v",
				seq, mirror, eng.Verdict(), want)
		}
		s := eng.Stats()
		totals.IncrementalOps += s.IncrementalOps
		totals.FullAnalyses += s.FullAnalyses
	}
	// Every delta patches the table; the property is only meaningful if
	// the sequences reached gang removals, admissions and demand misses.
	if totals.IncrementalOps == 0 || totals.FullAnalyses != 0 || gangRemovals == 0 ||
		reasons[OK] == 0 || reasons[HyperperiodMiss] == 0 {
		t.Fatalf("random sequences did not exercise every case: %+v, %d gang removals, reasons %v",
			totals, gangRemovals, reasons)
	}
	t.Logf("over %d sequences: %+v, %d gang removals, reasons %v (verify tag: %v)",
		sequences, totals, gangRemovals, reasons, VerifyEnabled)
}

// TestIncrementalDigestStateProperty audits the engine's maintained
// digest state — the canonical-order copy of the committed set and the
// FNV-1a state after each canonical prefix — after every one of a few
// thousand random operations on one long-lived engine: gang adds,
// evaluate-only probes and batches, removals
// (including absent members and duplicate tasks), Restore and Reset.
// Every returned verdict must also match Analyze of its candidate, digest
// included. No build tag: plain `go test` covers it.
func TestIncrementalDigestStateProperty(t *testing.T) {
	const ops = 3000
	// Few distinct values, so duplicate tasks and equal-period ties are
	// the norm; 3 ms and 999_983 ns (prime) divide no other period.
	// Light slices keep tens of tasks committed, so digests resume
	// mid-set.
	spec := Spec{OverheadNs: 1_000, UtilizationLimit: 0.9}
	periods := []int64{1_000_000, 1_000_000, 2_000_000, 4_000_000, 4_000_000, 3_000_000}
	sliceNs := []int64{5_000, 10_000, 10_000, 20_000, 40_000}
	rng := sim.NewRand(0xd16e57)
	task := func() Task {
		switch roll := rng.Float64(); {
		case roll < 0.01:
			return Task{PeriodNs: 999_983, SliceNs: 10}
		case roll < 0.02:
			return Task{PeriodNs: 0, SliceNs: 1} // BadTask
		default:
			return Task{PeriodNs: periods[rng.Intn(len(periods))], SliceNs: sliceNs[rng.Intn(len(sliceNs))]}
		}
	}
	gangOf := func() TaskSet {
		g := TaskSet{task()}
		for rng.Float64() < 0.35 {
			g = append(g, task())
		}
		return g
	}
	// pick draws k distinct committed instances (possibly equal values).
	pick := func(set TaskSet, k int) TaskSet {
		g := TaskSet{}
		for _, i := range rng.Perm(len(set))[:min(k, len(set))] {
			g = append(g, set[i])
		}
		return g
	}
	checkVerdict := func(op int, what string, got Verdict, candidate TaskSet) {
		t.Helper()
		if want := Analyze(spec, candidate); got != want {
			t.Fatalf("op %d: %s verdict diverges for %v\ninc  %+v\nfull %+v", op, what, candidate, got, want)
		}
	}

	eng := NewIncremental(spec)
	var mirror TaskSet // the committed set, in admission order
	for op := 0; op < ops; op++ {
		switch roll := rng.Float64(); {
		case roll < 0.005:
			eng.Reset()
			mirror = nil
		case roll < 0.02:
			set := TaskSet{}
			for n := rng.Intn(40); n > 0; n-- {
				if p := periods[rng.Intn(len(periods))]; rng.Float64() < 0.05 {
					set = append(set, Task{PeriodNs: p, SliceNs: p + 1}) // BadTask
				} else {
					set = append(set, Task{PeriodNs: p, SliceNs: sliceNs[rng.Intn(len(sliceNs))]})
				}
			}
			checkVerdict(op, "Restore", eng.Restore(set), set)
			mirror = set
		case roll < 0.20 && len(mirror) > 0:
			gang := pick(mirror, 1+rng.Intn(3))
			v, ok := eng.RemoveGang(gang)
			if !ok {
				t.Fatalf("op %d: committed gang %v not found", op, gang)
			}
			mirror = removeFirstEqual(mirror, gang)
			checkVerdict(op, "RemoveGang", v, mirror)
		case roll < 0.25:
			gang := append(pick(mirror, rng.Intn(3)), Task{PeriodNs: 7, SliceNs: 1})
			before := eng.Verdict()
			if v, ok := eng.RemoveGang(gang); ok || v != before {
				t.Fatalf("op %d: removal with an absent member committed: ok=%v %+v", op, ok, v)
			}
		case roll < 0.40:
			gang := gangOf()
			checkVerdict(op, "EvaluateGang", eng.EvaluateGang(gang), append(append(TaskSet{}, mirror...), gang...))
		case roll < 0.50:
			gangs := []TaskSet{gangOf(), gangOf(), nil}
			for i, v := range eng.TryGangBatch(gangs) {
				checkVerdict(op, "TryGangBatch", v, append(append(TaskSet{}, mirror...), gangs[i]...))
			}
		default:
			gang := gangOf()
			candidate := append(append(TaskSet{}, mirror...), gang...)
			v := eng.TryGang(gang)
			checkVerdict(op, "TryGang", v, candidate)
			if v.Admit {
				mirror = candidate
			}
		}

		// The maintained state must describe the committed set exactly.
		if got := eng.Tasks(); !reflect.DeepEqual(got, mirror) && len(got)+len(mirror) > 0 {
			t.Fatalf("op %d: committed set %v, want %v", op, got, mirror)
		}
		if !reflect.DeepEqual(eng.canon, mirror.Canonical()) && len(mirror) > 0 {
			t.Fatalf("op %d: canonical order %v, want %v", op, eng.canon, mirror.Canonical())
		}
		if len(eng.prefix) != len(eng.canon)+1 || eng.prefix[0] != fnvOffset64 {
			t.Fatalf("op %d: %d prefix states for %d tasks", op, len(eng.prefix), len(eng.canon))
		}
		if got, want := eng.prefix[len(eng.canon)], eng.Tasks().Digest(); got != want || eng.Verdict().Digest != want {
			t.Fatalf("op %d: committed digest state %#x (verdict %#x), want %#x", op, got, eng.Verdict().Digest, want)
		}
		if got, want := eng.Utilization(), mirror.Utilization(); got != want {
			t.Fatalf("op %d: committed utilization %v, want %v", op, got, want)
		}
	}
	if s := eng.Stats(); s.IncrementalOps == 0 || s.FullAnalyses == 0 {
		t.Fatalf("random ops did not reach both deltas and Restore: %+v", s)
	}
}

// TestDigestValuesPinned pins digest values: they are the serving
// layer's cache key, its shard-routing key, and a field of every reply,
// so a change to the hash is a wire change.
func TestDigestValuesPinned(t *testing.T) {
	cases := []struct {
		set  TaskSet
		want uint64
	}{
		{nil, 0xcbf29ce484222325},
		{TaskSet{{PeriodNs: 100_000, SliceNs: 20_000}}, 0xd16f586f0ffde170},
		{TaskSet{{PeriodNs: 200_000, SliceNs: 40_000}, {PeriodNs: 100_000, SliceNs: 20_000}, {PeriodNs: 100_000, SliceNs: 5}}, 0xfde19050e9d8f236},
		{TaskSet{{PeriodNs: -1, SliceNs: 1 << 50}, {PeriodNs: 1 << 41, SliceNs: 7}}, 0x4a0a4444198c1184},
	}
	for i, c := range cases {
		if got := c.set.Digest(); got != c.want {
			t.Errorf("set %d: Digest = %#x, want %#x", i, got, c.want)
		}
	}
}

// TestFnvInt64MatchesByteLoop: folding a value's high zero bytes as one
// multiply must reach the same state as the plain eight-step FNV-1a loop.
func TestFnvInt64MatchesByteLoop(t *testing.T) {
	byteLoop := func(h uint64, v int64) uint64 {
		x := uint64(v)
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= fnvPrime64
			x >>= 8
		}
		return h
	}
	rng := sim.NewRand(0xf0f1)
	vals := []int64{0, 1, -1, 0xff, 0x100, 1 << 40, 1<<63 - 1, -1 << 63}
	for i := 0; i < 4000; i++ {
		vals = append(vals, int64(rng.Uint64()>>rng.Intn(64)))
	}
	h := uint64(fnvOffset64)
	for _, v := range vals {
		want := byteLoop(h, v)
		if got := fnvInt64(h, v); got != want {
			t.Fatalf("fnvInt64(%#x, %#x) = %#x, want %#x", h, v, got, want)
		}
		h = want
	}
}

// removeFirstEqual mirrors the engine's multiset removal: each gang member
// consumes the first unconsumed instance of set equal to it.
func removeFirstEqual(set, gang TaskSet) TaskSet {
	drop := make(map[int]bool, len(gang))
	for _, g := range gang {
		for i, t := range set {
			if !drop[i] && t == g {
				drop[i] = true
				break
			}
		}
	}
	out := make(TaskSet, 0, len(set)-len(gang))
	for i, t := range set {
		if !drop[i] {
			out = append(out, t)
		}
	}
	return out
}

// randTask draws a mostly-wellformed task; a small fraction is malformed
// (slice over period, zero period) to exercise the BadTask path.
func randTask(r *sim.Rand, periods []int64) Task {
	p := periods[r.Intn(len(periods))]
	switch {
	case r.Float64() < 0.03:
		return Task{PeriodNs: 0, SliceNs: 1}
	case r.Float64() < 0.03:
		return Task{PeriodNs: p, SliceNs: p + 1 + r.Int63n(p)}
	default:
		// Slices up to ~40% of the period: deep sequences still admit
		// several tasks before the bound or the demand test rejects.
		return Task{PeriodNs: p, SliceNs: 1 + r.Int63n(p*2/5)}
	}
}

func TestIncrementalRestore(t *testing.T) {
	inc := NewIncremental(specPhi79)
	a := Task{PeriodNs: 200_000, SliceNs: 40_000}
	b := Task{PeriodNs: 100_000, SliceNs: 20_000}
	inc.Add(a)

	// Restore replaces the committed set wholesale with a fresh analysis.
	set := TaskSet{a, b}
	full := inc.Stats().FullAnalyses
	v := inc.Restore(set)
	if inc.Stats().FullAnalyses != full+1 {
		t.Fatalf("Restore did not run a full analysis")
	}
	if want := Analyze(specPhi79, set); v != want {
		t.Fatalf("restore verdict diverges:\n got %+v\nwant %+v", v, want)
	}
	if got := inc.Tasks(); !reflect.DeepEqual(got, set) {
		t.Fatalf("restored set = %v, want %v", got, set)
	}

	// The engine keeps answering incrementally after a restore.
	c := Task{PeriodNs: 100_000, SliceNs: 10_000}
	if want := Analyze(specPhi79, TaskSet{a, b, c}); inc.Add(c) != want {
		t.Fatalf("add after restore diverges")
	}

	// Restore commits even a set the spec rejects: a spec change across a
	// restart must never evict running work, only report it as over-budget.
	fat := TaskSet{{PeriodNs: 100_000, SliceNs: 90_000}}
	if v := inc.Restore(fat); v.Admit {
		t.Fatalf("over-capacity restore admitted: %+v", v)
	}
	if got := inc.Tasks(); !reflect.DeepEqual(got, fat) {
		t.Fatalf("rejected restore did not commit: %v", got)
	}
}

// TestIncrementalOverflowedRowRemoval: a row whose summed charge passed
// math.MaxInt64 cannot be patched by subtraction, so a removal sums it
// again from the tasks that remain — once every removed member is gone.
func TestIncrementalOverflowedRowRemoval(t *testing.T) {
	const p = math.MaxInt64
	big, small := Task{PeriodNs: p, SliceNs: 1 << 62}, Task{PeriodNs: p, SliceNs: 1 << 61}
	inc := NewIncremental(budgetSpec)
	set := TaskSet{big, small, big}
	if v := inc.Restore(set); v != Analyze(budgetSpec, set) || v.Sim.Reason != HyperperiodMiss {
		t.Fatalf("overflowed set: %+v, want Analyze's miss", v)
	}
	v, ok := inc.RemoveGang(TaskSet{big, big})
	if want := Analyze(budgetSpec, TaskSet{small}); !ok || v != want || !v.Admit {
		t.Fatalf("after removing both large tasks: %+v, want %+v", v, want)
	}
}
