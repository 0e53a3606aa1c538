package plan

import (
	"math"
	"slices"
)

// Incremental is the stateful, per-CPU admission engine. It answers the
// same admit/reject question as Analyze — bit-identically, see
// VerdictsEquivalent and the planverify build tag — but keeps the admitted
// task set, its hyperperiod decomposition, and the demand each admitted
// task places on every deadline checkpoint as reusable state, so a
// single-task delta is answered by patching that state instead of
// re-simulating the whole hyperperiod from scratch.
//
// The retained state is the processor demand curve of the admitted set:
// for a synchronous periodic set with deadlines equal to periods, EDF
// meets every deadline over the hyperperiod H exactly when, at every
// deadline checkpoint t (every multiple of an admitted period up to H),
// the window charge plus the total per-job charge released with deadline
// <= t fits in t (simulateSet starts its clock at the window charge). That
// criterion is exact — it accepts and rejects precisely the sets the
// hyperperiod simulation accepts and rejects — and it is patchable: a new
// task with period P dividing H adds floor(t/P)*rem demand at each
// retained checkpoint plus introduces its own multiples of P, and a
// removed task subtracts the same, both in time proportional to the delta
// rather than to the hyperperiod.
//
// The verdict's digest is patched the same way: the engine keeps the
// committed set in canonical order beside the FNV-1a state after each
// canonical prefix, so a delta's digest resumes from the first canonical
// position the delta changes and hashes only the suffix — no sort.
//
// The engine falls back to the full simulation (Analyze) whenever the
// patch would not be exact or would not be cheap:
//
//   - the hyperperiod changes (LCM shift): the checkpoint set is stale,
//     so the candidate is re-analyzed in full and the state rebuilt;
//   - the candidate is within reach of the simulation's conservative
//     rejections (step budget): the simulation's SimSteps verdict depends
//     on its exact event count, so any set whose worst-case event count
//     could exceed MaxSimSteps is handed to the real simulation;
//   - the engine holds no valid state (empty set, or a committed set the
//     full analysis itself rejected conservatively).
//
// Incremental is not safe for concurrent use; give each CPU (or each
// cluster node) its own engine.
type Incremental struct {
	spec Spec

	tasks TaskSet // committed tasks, in admission order
	rems  []int64 // per-task per-job demand (jobCharge)
	hyper int64   // hyperperiod of tasks (0 when empty or !valid)
	jobs  int64   // total jobs per hyperperiod: sum of hyper/period

	// utilPrefix[i] is tasks[:i].Utilization(): the left-to-right float
	// fold Analyze computes, so a delta's utilization resumes from the
	// first admission-order position it changes and stays bit-identical.
	utilPrefix []float64

	// canon is the committed set in canonical order and prefix[i] the
	// FNV-1a state after hashing canon[:i], so prefix[len(canon)] is the
	// committed digest. Maintained on every path, valid or not.
	canon  TaskSet
	prefix []uint64

	// points is the retained demand curve: one entry per deadline
	// checkpoint, demand = total inflated demand with deadline <= t.
	// Unordered; index maps checkpoint time to its slice position.
	points []demandPoint
	index  map[int64]int

	// valid reports whether points/jobs describe tasks exactly; it is
	// false while the committed set is one the full analysis rejected
	// conservatively (possible only through Remove) — every operation
	// then takes the full path until an admitted commit rebuilds state.
	valid bool

	last  Verdict // verdict of the committed set
	stats IncrementalStats

	// scratch holds per-engine buffers reused across calls, so a patched
	// delta does no per-call allocation or copy of the committed set.
	// Safe because the engine is single-owner and nothing retains these
	// buffers past a call; commit paths copy values out.
	scratch struct {
		candidate TaskSet  // committed set ++ gang, for the full path
		gang      TaskSet  // the delta's gang in canonical order
		rems      []int64  // the gang's inflated per-job demand
		states    []uint64 // merged-suffix digest states, for commitGang
		drop      []int    // admission-order indices a removal consumes
	}
}

type demandPoint struct {
	t      int64
	demand int64
}

// IncrementalStats counts which path answered each operation.
type IncrementalStats struct {
	// IncrementalOps is the number of verdicts produced by patching the
	// retained demand curve.
	IncrementalOps int64
	// FullAnalyses is the number of verdicts that fell back to the full
	// Analyze (hyperperiod shift, step-budget risk, bad task, or no
	// retained state).
	FullAnalyses int64
}

// stepRiskMargin: the hyperperiod simulation takes at most 3*jobs+1 steps
// (every job completes in >=1 segment, each release instant truncates at
// most one running segment and absorbs at most one idle advance), so any
// set with 3*jobs+stepRiskMargin <= MaxSimSteps is guaranteed never to hit
// the SimSteps conservative rejection and the demand-curve verdict is
// exact. Anything closer to the budget is handed to the real simulation.
const stepRiskMargin = 8

// NewIncremental creates an empty engine for the spec.
func NewIncremental(spec Spec) *Incremental {
	inc := &Incremental{spec: spec, index: map[int64]int{}}
	inc.Reset()
	return inc
}

// Spec returns the platform spec the engine analyzes under.
func (inc *Incremental) Spec() Spec { return inc.spec }

// Len returns the number of committed tasks.
func (inc *Incremental) Len() int { return len(inc.tasks) }

// Tasks returns a copy of the committed task set in admission order.
func (inc *Incremental) Tasks() TaskSet { return append(TaskSet(nil), inc.tasks...) }

// Hyperperiod returns the committed set's hyperperiod (0 when empty).
func (inc *Incremental) Hyperperiod() int64 { return inc.hyper }

// Utilization returns the committed set's summed utilization.
func (inc *Incremental) Utilization() float64 { return inc.utilPrefix[len(inc.tasks)] }

// Verdict returns the verdict of the committed set, as Analyze would
// report it.
func (inc *Incremental) Verdict() Verdict { return inc.last }

// Stats reports how many operations took each decision path.
func (inc *Incremental) Stats() IncrementalStats { return inc.stats }

// Reset empties the engine.
func (inc *Incremental) Reset() { inc.rebuild(nil, Analyze(inc.spec, nil)) }

// Restore replaces the committed set wholesale — the crash-recovery path
// after loading a durable snapshot. Unlike TryGang it commits regardless
// of the verdict: the set was admitted before the restart, and a spec
// change across restarts must not silently evict running work. The
// returned verdict describes the restored set under the current spec.
func (inc *Incremental) Restore(tasks TaskSet) Verdict {
	inc.stats.FullAnalyses++
	v := Analyze(inc.spec, tasks)
	inc.rebuild(tasks, v)
	return v
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
	v, gangJobs, patched := inc.evaluate(gang)
	switch {
	case !v.Admit:
	case patched:
		inc.commitGang(gang, gangJobs, v)
	default:
		inc.rebuild(inc.scratch.candidate, v)
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
// A removal always commits, so the committed set is shrunk in place
// first — the canonical pass that deletes the gang re-derives the prefix
// states and yields the new digest at once — and the verdict is then
// either patched or, on the fallback path, analyzed from that set.
func (inc *Incremental) RemoveGang(gang TaskSet) (Verdict, bool) {
	if len(gang) == 0 {
		return inc.last, true
	}
	drop, ok := inc.matchIndices(gang)
	if !ok {
		return inc.last, false
	}
	var removedJobs int64
	if inc.hyper > 0 {
		for _, g := range gang {
			removedJobs += inc.hyper / g.PeriodNs
		}
	}
	gs := inc.sortGang(gang)
	inc.dropTasks(drop)
	digest := inc.dropCanon(gs)

	if inc.valid && len(inc.tasks) > 0 && inc.hyperKept(gs) &&
		3*(inc.jobs-removedJobs)+stepRiskMargin <= MaxSimSteps {
		inc.stats.IncrementalOps++
		rems := inc.gangRems(gs)
		for i := range inc.points {
			inc.points[i].demand -= gangDemandAt(inc.points[i].t, gs, rems)
		}
		inc.jobs -= removedJobs
		v := inc.removeVerdict(digest)
		verifyVerdict(inc.spec, inc.tasks, v)
		inc.last = v
		return v, true
	}

	inc.stats.FullAnalyses++
	v := Analyze(inc.spec, inc.tasks)
	inc.rebuild(inc.tasks, v)
	return v, true
}

// EvaluateGang answers the verdict of the committed set plus gang without
// committing anything — the what-if half of TryGang. It patches the
// retained demand curve when eligible and falls back to the full Analyze
// otherwise, so the verdict is equivalent (see VerdictsEquivalent) to
// Analyze on the combined set either way; the planverify build asserts
// it. The engine state is unchanged, and per-engine scratch buffers make
// the patch path allocation-free in the steady state.
func (inc *Incremental) EvaluateGang(gang TaskSet) Verdict {
	if len(gang) == 0 {
		return inc.last
	}
	v, _, _ := inc.evaluate(gang)
	return v
}

// TryGangBatch evaluates many candidate gangs against the committed set
// in one retained-curve pass, committing nothing: out[i] is exactly
// EvaluateGang(gangs[i]). One demand-bound decomposition of the committed
// set answers every candidate, so a k-candidate probe costs k curve
// patches instead of k hyperperiod simulations.
func (inc *Incremental) TryGangBatch(gangs []TaskSet) []Verdict {
	out := make([]Verdict, len(gangs))
	for i, g := range gangs {
		out[i] = inc.EvaluateGang(g)
	}
	return out
}

// evaluate answers the committed set plus a non-empty gang without
// committing. When patched, scratch holds what commitGang consumes — the
// gang in canonical order, its rems, and the merged digest states —
// otherwise scratch.candidate holds the combined set the full Analyze
// judged.
func (inc *Incremental) evaluate(gang TaskSet) (v Verdict, gangJobs int64, patched bool) {
	gangJobs, patched = inc.gangEligible(gang)
	if !patched {
		inc.stats.FullAnalyses++
		return Analyze(inc.spec, inc.withGang(gang)), 0, false
	}
	inc.stats.IncrementalOps++
	v = inc.patchVerdict(gang)
	if VerifyEnabled {
		verifyVerdict(inc.spec, inc.withGang(gang), v)
	}
	return v, gangJobs, true
}

// withGang materializes the committed set ++ gang into scratch.
func (inc *Incremental) withGang(gang TaskSet) TaskSet {
	inc.scratch.candidate = append(append(inc.scratch.candidate[:0], inc.tasks...), gang...)
	return inc.scratch.candidate
}

// gangEligible decides whether the gang can be answered by patching:
// state valid and non-empty, every member well-formed, no hyperperiod
// shift, and the grown set safely inside the simulation's step budget.
// When eligible it leaves the gang's rems (in gang order) in
// scratch.rems.
func (inc *Incremental) gangEligible(gang TaskSet) (gangJobs int64, ok bool) {
	if !inc.valid || len(inc.tasks) == 0 || inc.hyper <= 0 {
		return 0, false
	}
	for _, g := range gang {
		if !g.Valid() {
			return 0, false
		}
		if inc.hyper%g.PeriodNs != 0 {
			return 0, false // LCM shift: hyperperiod would grow
		}
		gangJobs += inc.hyper / g.PeriodNs
	}
	if 3*(inc.jobs+gangJobs)+stepRiskMargin > MaxSimSteps {
		return 0, false
	}
	inc.gangRems(gang)
	return gangJobs, true
}

// gangRems fills scratch.rems with the inflated per-job demand of each
// gang member, in gang order.
func (inc *Incremental) gangRems(gang TaskSet) []int64 {
	rems := inc.scratch.rems[:0]
	for _, g := range gang {
		rems = append(rems, inc.demandOf(g))
	}
	inc.scratch.rems = rems
	return rems
}

// demandOf is a task's inflated per-job demand, charged exactly as the
// simulation charges it.
func (inc *Incremental) demandOf(t Task) int64 {
	return jobCharge(t, inc.spec.OverheadNs, inc.spec.UtilizationLimit)
}

// sortGang copies the gang into scratch in canonical order.
func (inc *Incremental) sortGang(gang TaskSet) TaskSet {
	gs := append(inc.scratch.gang[:0], gang...)
	canonSort(gs)
	inc.scratch.gang = gs
	return gs
}

// patchVerdict evaluates committed set ++ gang against the patched demand
// curve without committing anything.
func (inc *Incremental) patchVerdict(gang TaskSet) Verdict {
	gangRems := inc.scratch.rems
	u := inc.Utilization()
	for _, g := range gang {
		u += g.Utilization()
	}
	v := Verdict{Utilization: u, Digest: inc.mergedDigest(inc.sortGang(gang))}
	v.BoundOK = v.Utilization <= inc.spec.UtilizationLimit+utilEpsilon

	window := windowCharge(len(inc.tasks)+len(gang), inc.spec.OverheadNs)
	simOK := true
	steps := 0
	for i := range inc.points {
		p := inc.points[i]
		steps++
		if window+p.demand+gangDemandAt(p.t, gang, gangRems) > p.t {
			simOK = false
			break
		}
	}
	if simOK {
	newPoints:
		for _, g := range gang {
			for t := g.PeriodNs; t <= inc.hyper; t += g.PeriodNs {
				if _, seen := inc.index[t]; seen {
					continue
				}
				steps++
				if window+inc.baseDemandAt(t)+gangDemandAt(t, gang, gangRems) > t {
					simOK = false
					break newPoints
				}
			}
		}
	}

	v.Sim = SimResult{OK: simOK, Reason: OK, HyperperiodNs: inc.hyper, Steps: steps}
	if !simOK {
		v.Sim.Reason = HyperperiodMiss
	}
	v.Admit = v.BoundOK && simOK
	switch {
	case v.Admit:
		v.Reason = OK
	case !v.BoundOK:
		v.Reason = UtilBound
	default:
		v.Reason = v.Sim.Reason
	}
	return v
}

// removeVerdict builds the verdict for the just-shrunk committed set
// (hyperperiod unchanged). Demand only shrinks, so the simulation gate
// still passes; only the utilization bound needs re-checking.
func (inc *Incremental) removeVerdict(digest uint64) Verdict {
	v := Verdict{Utilization: inc.Utilization(), Digest: digest}
	v.BoundOK = v.Utilization <= inc.spec.UtilizationLimit+utilEpsilon
	v.Sim = SimResult{OK: true, Reason: OK, HyperperiodNs: inc.hyper, Steps: len(inc.points)}
	v.Admit = v.BoundOK
	if v.Admit {
		v.Reason = OK
	} else {
		v.Reason = UtilBound
	}
	return v
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

// commitGang applies an admitted, patched gang to the retained state.
// baseDemandAt must see the pre-gang tasks, so tasks/rems are appended
// last; the canonical order merges the gang in and takes its prefix
// states from the digest pass that produced v.
func (inc *Incremental) commitGang(gang TaskSet, gangJobs int64, v Verdict) {
	gangRems := inc.scratch.rems
	for i := range inc.points {
		inc.points[i].demand += gangDemandAt(inc.points[i].t, gang, gangRems)
	}
	for _, g := range gang {
		for t := g.PeriodNs; t <= inc.hyper; t += g.PeriodNs {
			if _, seen := inc.index[t]; seen {
				continue
			}
			inc.index[t] = len(inc.points)
			inc.points = append(inc.points, demandPoint{
				t: t, demand: inc.baseDemandAt(t) + gangDemandAt(t, gang, gangRems)})
		}
	}
	u := inc.Utilization()
	for _, g := range gang {
		u += g.Utilization()
		inc.utilPrefix = append(inc.utilPrefix, u)
	}
	inc.tasks = append(inc.tasks, gang...)
	inc.rems = append(inc.rems, gangRems...)
	inc.jobs += gangJobs
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
		inc.tasks[w], inc.rems[w] = t, inc.rems[i]
		u += t.Utilization()
		w++
		inc.utilPrefix[w] = u
	}
	inc.tasks, inc.rems, inc.utilPrefix = inc.tasks[:w], inc.rems[:w], inc.utilPrefix[:w+1]
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

// hyperKept reports whether the just-shrunk (valid, non-empty) committed
// set keeps the retained hyperperiod. Its LCM divides the old one and
// can only differ when a removed period left the set entirely, so the
// fold over canon's distinct periods reruns only then.
func (inc *Incremental) hyperKept(gs TaskSet) bool {
	for i, g := range gs {
		if i > 0 && g.PeriodNs == gs[i-1].PeriodNs {
			continue
		}
		p := inc.canonPos(Task{PeriodNs: g.PeriodNs, SliceNs: math.MinInt64})
		if p < len(inc.canon) && inc.canon[p].PeriodNs == g.PeriodNs {
			continue
		}
		h := int64(1)
		for j, t := range inc.canon {
			if j == 0 || t.PeriodNs != inc.canon[j-1].PeriodNs {
				h = lcm64(h, t.PeriodNs)
			}
		}
		return h == inc.hyper
	}
	return true
}

// rebuild replaces the retained state with a fresh decomposition of an
// analyzed candidate (the full-analysis fallback path, Restore, Reset).
// candidate may alias inc.tasks.
func (inc *Incremental) rebuild(candidate TaskSet, v Verdict) {
	inc.tasks = append(inc.tasks[:0], candidate...)
	inc.rems = inc.rems[:0]
	inc.utilPrefix = append(inc.utilPrefix[:0], 0)
	u := 0.0
	for _, t := range inc.tasks {
		inc.rems = append(inc.rems, inc.demandOf(t))
		u += t.Utilization()
		inc.utilPrefix = append(inc.utilPrefix, u)
	}
	inc.last = v

	inc.canon = append(inc.canon[:0], inc.tasks...)
	canonSort(inc.canon)
	h := uint64(fnvOffset64)
	inc.prefix = append(inc.prefix[:0], h)
	for _, t := range inc.canon {
		h = fnvTask(h, t)
		inc.prefix = append(inc.prefix, h)
	}

	inc.points = inc.points[:0]
	clear(inc.index)
	inc.hyper, inc.jobs = 0, 0
	inc.valid = len(inc.tasks) == 0
	// State is reusable only for a cleanly simulated set safely inside
	// the step budget; conservative or failed verdicts leave the engine
	// on the full path.
	if inc.valid || v.Sim.Reason != OK || v.Sim.HyperperiodNs <= 0 {
		return
	}
	hyper := v.Sim.HyperperiodNs
	var jobs int64
	for _, t := range inc.tasks {
		jobs += hyper / t.PeriodNs
	}
	if 3*jobs+stepRiskMargin > MaxSimSteps {
		return
	}
	inc.hyper, inc.jobs = hyper, jobs
	for _, t := range inc.tasks {
		for p := t.PeriodNs; p <= inc.hyper; p += t.PeriodNs {
			if _, seen := inc.index[p]; seen {
				continue
			}
			inc.index[p] = len(inc.points)
			inc.points = append(inc.points, demandPoint{t: p})
		}
	}
	for i := range inc.points {
		inc.points[i].demand = inc.baseDemandAt(inc.points[i].t)
	}
	inc.valid = true
}

// baseDemandAt returns the committed set's inflated demand with deadline
// <= t.
func (inc *Incremental) baseDemandAt(t int64) int64 {
	var d int64
	for i := range inc.tasks {
		d += (t / inc.tasks[i].PeriodNs) * inc.rems[i]
	}
	return d
}

func gangDemandAt(t int64, gang TaskSet, gangRems []int64) int64 {
	var d int64
	for i := range gang {
		d += (t / gang[i].PeriodNs) * gangRems[i]
	}
	return d
}
