package plan

import "slices"

// Incremental is the stateful, per-CPU admission engine. It answers the
// same admit/reject question as Analyze — the identical Verdict, see the
// planverify build tag — but keeps the admitted set's demand table (one
// row per period: the summed jobCharge of its tasks, see demand.go) as
// state, so a delta patches that table by adding or subtracting the
// gang's charges and then runs the one demand test Analyze runs.
//
// The verdict's digest is patched the same way: the engine keeps the
// committed set in canonical order beside the FNV-1a state after each
// canonical prefix, so a delta's digest resumes from the first canonical
// position the delta changes and hashes only the suffix — no sort.
//
// Incremental is not safe for concurrent use; give each CPU (or each
// cluster node) its own engine.
type Incremental struct {
	spec Spec

	tasks TaskSet // committed tasks, in admission order

	// utilPrefix[i] is tasks[:i].Utilization(): the left-to-right float
	// fold Analyze computes, so a delta's utilization resumes from the
	// first admission-order position it changes and stays bit-identical.
	utilPrefix []float64

	// canon is the committed set in canonical order and prefix[i] the
	// FNV-1a state after hashing canon[:i], so prefix[len(canon)] is the
	// committed digest.
	canon  TaskSet
	prefix []uint64

	// rows is the demand table of the committed set's well-formed tasks,
	// and bad counts its malformed ones (Restore commits any set).
	rows []demandRow
	bad  int

	last  Verdict // verdict of the committed set
	stats IncrementalStats

	// scratch holds per-engine buffers reused across calls, so a delta
	// does no per-call allocation or copy of the committed set. Safe
	// because the engine is single-owner and nothing retains these
	// buffers past a call; commit paths copy values out or swap them in.
	scratch struct {
		rows   []demandRow // the candidate's demand table
		gang   TaskSet     // the delta's gang in canonical order
		states []uint64    // merged-suffix digest states, for commitGang
		drop   []int       // admission-order indices a removal consumes
	}
}

// IncrementalStats counts how each verdict's demand table was built.
type IncrementalStats struct {
	// IncrementalOps is the number of deltas answered by patching the
	// committed table.
	IncrementalOps int64
	// FullAnalyses is the number of tables built from scratch (Restore).
	FullAnalyses int64
}

// NewIncremental creates an empty engine for the spec.
func NewIncremental(spec Spec) *Incremental {
	inc := &Incremental{spec: spec}
	inc.Reset()
	return inc
}

// Spec returns the platform spec the engine analyzes under.
func (inc *Incremental) Spec() Spec { return inc.spec }

// Len returns the number of committed tasks.
func (inc *Incremental) Len() int { return len(inc.tasks) }

// Tasks returns a copy of the committed task set in admission order.
func (inc *Incremental) Tasks() TaskSet { return append(TaskSet(nil), inc.tasks...) }

// Utilization returns the committed set's summed utilization.
func (inc *Incremental) Utilization() float64 { return inc.utilPrefix[len(inc.tasks)] }

// Verdict returns the verdict of the committed set, as Analyze would
// report it.
func (inc *Incremental) Verdict() Verdict { return inc.last }

// Stats reports how many operations took each decision path.
func (inc *Incremental) Stats() IncrementalStats { return inc.stats }

// Reset empties the engine.
func (inc *Incremental) Reset() { inc.rebuild(nil) }

// Restore replaces the committed set wholesale — the crash-recovery path
// after loading a durable snapshot. Unlike TryGang it commits regardless
// of the verdict: the set was admitted before the restart, and a spec
// change across restarts must not silently evict running work. The
// returned verdict describes the restored set under the current spec.
func (inc *Incremental) Restore(tasks TaskSet) Verdict {
	inc.stats.FullAnalyses++
	inc.rebuild(tasks)
	verifyVerdict(inc.spec, tasks, inc.last)
	return inc.last
}

// Add evaluates the committed set plus one task and commits it when
// admitted. The verdict describes the combined set either way; a
// rejection leaves the engine unchanged.
func (inc *Incremental) Add(t Task) Verdict { return inc.TryGang(TaskSet{t}) }

// TryGang evaluates the committed set plus a gang, all-or-nothing: the
// gang is committed only when the combined set is admitted, and a
// rejection admits no member. The verdict describes the combined set.
func (inc *Incremental) TryGang(gang TaskSet) Verdict {
	if len(gang) == 0 {
		return inc.last
	}
	v := inc.evaluate(gang)
	if v.Admit {
		inc.commitGang(gang, v)
	}
	return v
}

// Remove evicts one committed task matching t (by value) and returns the
// remaining set's verdict. The second result is false — and the engine
// unchanged — when no committed task matches. Unlike Add, a removal
// always commits: eviction is not an admission question.
func (inc *Incremental) Remove(t Task) (Verdict, bool) {
	return inc.RemoveGang(TaskSet{t})
}

// RemoveGang evicts one committed instance of every task in gang,
// all-or-nothing: if any member has no match the engine is unchanged and
// the second result is false. The verdict describes the remaining set.
//
// A removal always commits, so the committed set is shrunk in place: the
// canonical pass that deletes the gang re-derives the prefix states and
// yields the new digest at once, and the gang's charges leave the table.
func (inc *Incremental) RemoveGang(gang TaskSet) (Verdict, bool) {
	if len(gang) == 0 {
		return inc.last, true
	}
	drop, ok := inc.matchIndices(gang)
	if !ok {
		return inc.last, false
	}
	inc.stats.IncrementalOps++
	gs := inc.sortGang(gang)
	inc.dropTasks(drop)
	digest := inc.dropCanon(gs)
	for _, g := range gs {
		if !g.Valid() {
			inc.bad--
			continue
		}
		inc.subRow(g)
	}
	inc.recountOverflowed()
	inc.last = inc.verdictOf(inc.Utilization(), digest, len(inc.tasks), inc.bad, inc.rows)
	verifyVerdict(inc.spec, inc.tasks, inc.last)
	return inc.last, true
}

// EvaluateGang answers the verdict of the committed set plus gang without
// committing anything — the what-if half of TryGang. The engine state is
// unchanged, and per-engine scratch buffers make it allocation-free in
// the steady state.
func (inc *Incremental) EvaluateGang(gang TaskSet) Verdict {
	if len(gang) == 0 {
		return inc.last
	}
	return inc.evaluate(gang)
}

// TryGangBatch evaluates many candidate gangs against the committed set,
// committing nothing: out[i] is exactly EvaluateGang(gangs[i]).
func (inc *Incremental) TryGangBatch(gangs []TaskSet) []Verdict {
	out := make([]Verdict, len(gangs))
	for i, g := range gangs {
		out[i] = inc.EvaluateGang(g)
	}
	return out
}

// evaluate answers the committed set plus a non-empty gang without
// committing, leaving in scratch what commitGang consumes: the gang in
// canonical order, the candidate's table and the merged digest states.
func (inc *Incremental) evaluate(gang TaskSet) Verdict {
	inc.stats.IncrementalOps++
	u := inc.Utilization()
	bad := inc.bad
	rows := append(inc.scratch.rows[:0], inc.rows...)
	for _, g := range gang {
		u += g.Utilization()
		if !g.Valid() {
			bad++
			continue
		}
		rows = addRow(rows, g.PeriodNs, inc.charge(g))
	}
	inc.scratch.rows = rows
	digest := inc.mergedDigest(inc.sortGang(gang))
	v := inc.verdictOf(u, digest, len(inc.tasks)+len(gang), bad, rows)
	if VerifyEnabled {
		verifyVerdict(inc.spec, append(inc.Tasks(), gang...), v)
	}
	return v
}

// verdictOf is the verdict of an n-task set with the given utilization,
// digest, malformed-task count and demand table.
func (inc *Incremental) verdictOf(util float64, digest uint64, n, bad int, rows []demandRow) Verdict {
	if bad > 0 {
		return badTaskVerdict(util, digest)
	}
	return judge(inc.spec, util, digest, demandTest(rows, windowCharge(n, inc.spec.OverheadNs)))
}

// charge is a task's per-job demand under the engine's spec.
func (inc *Incremental) charge(t Task) int64 {
	return jobCharge(t, inc.spec.OverheadNs, inc.spec.UtilizationLimit)
}

// subRow takes one well-formed committed task's charge out of the table.
// A row whose sum had overflowed cannot be patched by subtraction; it
// stays overflowed until recountOverflowed.
func (inc *Incremental) subRow(t Task) {
	i, _ := rowIndex(inc.rows, t.PeriodNs)
	r := &inc.rows[i]
	r.tasks--
	switch {
	case r.tasks == 0:
		inc.rows = slices.Delete(inc.rows, i, i+1)
	case r.charge >= 0:
		r.charge -= inc.charge(t)
	}
}

// recountOverflowed sums every overflowed row again from canon, which
// holds only the committed tasks: from the period's first task with a
// positive slice, the first one that can be well formed.
func (inc *Incremental) recountOverflowed() {
	for i := range inc.rows {
		r := &inc.rows[i]
		if r.charge >= 0 {
			continue
		}
		r.charge = 0
		for _, c := range inc.canon[inc.canonPos(Task{PeriodNs: r.period, SliceNs: 1}):] {
			if c.PeriodNs != r.period {
				break
			}
			if c.Valid() {
				r.charge = addCharge(r.charge, inc.charge(c))
			}
		}
	}
}

// sortGang copies the gang into scratch in canonical order.
func (inc *Incremental) sortGang(gang TaskSet) TaskSet {
	gs := append(inc.scratch.gang[:0], gang...)
	canonSort(gs)
	inc.scratch.gang = gs
	return gs
}

// canonPos returns the first canonical position whose task is not below
// t: where t would be inserted, and where the digest of a delta whose
// least member is t diverges from the committed digest.
func (inc *Incremental) canonPos(t Task) int {
	p, _ := slices.BinarySearchFunc(inc.canon, t, canonCmp)
	return p
}

// mergedDigest is the digest of the committed set plus gs (canonical): it
// resumes from the prefix state at gs[0]'s canonical position and hashes
// only the suffix merged with the gang, recording each state in
// scratch.states so a commit installs them without rehashing.
func (inc *Incremental) mergedDigest(gs TaskSet) uint64 {
	p := inc.canonPos(gs[0])
	h := inc.prefix[p]
	states := inc.scratch.states[:0]
	rest := inc.canon[p:]
	for _, g := range gs {
		for len(rest) > 0 && canonCmp(rest[0], g) < 0 {
			h = fnvTask(h, rest[0])
			states = append(states, h)
			rest = rest[1:]
		}
		h = fnvTask(h, g)
		states = append(states, h)
	}
	for _, t := range rest {
		h = fnvTask(h, t)
		states = append(states, h)
	}
	inc.scratch.states = states
	return h
}

// commitGang applies an admitted gang: the candidate table evaluate left
// in scratch becomes the committed one, and the canonical order merges
// the gang in, taking its prefix states from the digest pass that
// produced v.
func (inc *Incremental) commitGang(gang TaskSet, v Verdict) {
	inc.rows, inc.scratch.rows = inc.scratch.rows, inc.rows
	u := inc.Utilization()
	for _, g := range gang {
		u += g.Utilization()
		inc.utilPrefix = append(inc.utilPrefix, u)
	}
	inc.tasks = append(inc.tasks, gang...)
	inc.last = v

	// Merge the canonical gang into canon from the back, in place.
	gs := inc.scratch.gang
	p := inc.canonPos(gs[0])
	i := len(inc.canon) - 1
	inc.canon = append(inc.canon, gs...)
	for j, w := len(gs)-1, len(inc.canon)-1; j >= 0; w-- {
		if i >= p && canonCmp(inc.canon[i], gs[j]) > 0 {
			inc.canon[w] = inc.canon[i]
			i--
		} else {
			inc.canon[w] = gs[j]
			j--
		}
	}
	inc.prefix = append(inc.prefix[:p+1], inc.scratch.states...)
}

// matchIndices resolves a gang to committed admission-order indices,
// multiset-style — each member consumes the first unconsumed committed
// task equal to it — into scratch, sorted ascending.
func (inc *Incremental) matchIndices(gang TaskSet) ([]int, bool) {
	drop := inc.scratch.drop[:0]
	for _, g := range gang {
		at := -1
		for i, t := range inc.tasks {
			if t == g && !slices.Contains(drop, i) {
				at = i
				break
			}
		}
		if at < 0 {
			return nil, false
		}
		drop = append(drop, at)
	}
	slices.Sort(drop)
	inc.scratch.drop = drop
	return drop, true
}

// dropTasks deletes the tasks at the ascending admission-order indices
// in drop, in place, refolding the utilization prefix from the first.
func (inc *Incremental) dropTasks(drop []int) {
	w, d := drop[0], 0
	u := inc.utilPrefix[w]
	for i := w; i < len(inc.tasks); i++ {
		if d < len(drop) && drop[d] == i {
			d++
			continue
		}
		t := inc.tasks[i]
		inc.tasks[w] = t
		u += t.Utilization()
		w++
		inc.utilPrefix[w] = u
	}
	inc.tasks, inc.utilPrefix = inc.tasks[:w], inc.utilPrefix[:w+1]
}

// dropCanon deletes the (matched, canonical) gang from canon in place,
// re-deriving the prefix state of every shifted task as it goes, and
// returns the new committed digest: one suffix pass serves both.
func (inc *Incremental) dropCanon(gs TaskSet) uint64 {
	p := inc.canonPos(gs[0])
	h, w, j := inc.prefix[p], p, 0
	for _, t := range inc.canon[p:] {
		if j < len(gs) && t == gs[j] {
			j++
			continue
		}
		inc.canon[w] = t
		h = fnvTask(h, t)
		w++
		inc.prefix[w] = h
	}
	inc.canon, inc.prefix = inc.canon[:w], inc.prefix[:w+1]
	return h
}

// rebuild replaces the committed state with tasks (Restore, Reset, and
// a Memo entry's first capacity question): the utilization fold, the
// canonical order and its prefix states, the demand table, and the
// verdict. tasks may alias inc.tasks.
func (inc *Incremental) rebuild(tasks TaskSet) {
	inc.tasks = append(inc.tasks[:0], tasks...)
	inc.utilPrefix = append(inc.utilPrefix[:0], 0)
	u := 0.0
	inc.bad = 0
	for _, t := range inc.tasks {
		u += t.Utilization()
		inc.utilPrefix = append(inc.utilPrefix, u)
		if !t.Valid() {
			inc.bad++
		}
	}

	inc.canon = append(inc.canon[:0], inc.tasks...)
	canonSort(inc.canon)
	h := uint64(fnvOffset64)
	inc.prefix = append(inc.prefix[:0], h)
	for _, t := range inc.canon {
		h = fnvTask(h, t)
		inc.prefix = append(inc.prefix, h)
	}

	inc.rows = appendRows(inc.rows[:0], inc.canon, inc.spec)
	inc.last = inc.verdictOf(u, h, len(inc.tasks), inc.bad, inc.rows)
}
