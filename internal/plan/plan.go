// Package plan is the exported, side-effect-free schedulability engine
// behind the scheduler's admission control (Section 3.2). It answers
// admit/reject questions about periodic task sets two ways: the closed-form
// EDF utilization bound, and an exact processor-demand test that charges
// the scheduler's own invocations (Section 5.3; see Spec and demand.go)
// and therefore correctly rejects fine-grain task sets the bound would
// admit but the platform cannot actually schedule — the infeasible region
// of Figures 6 and 7.
//
// Everything in this package is a pure function of its arguments: no
// kernel, no clock, no global state. internal/core consumes it for online
// admission; internal/serve exposes it as a query service; external
// planners use it for what-if capacity reports and first-fit placement.
package plan

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"sync"

	"hrtsched/internal/machine"
	"hrtsched/internal/sim"
)

// Task is one periodic task: a slice of SliceNs guaranteed every PeriodNs.
type Task struct {
	PeriodNs int64 `json:"period_ns"`
	SliceNs  int64 `json:"slice_ns"`
}

// Utilization returns slice/period, or 0 for a malformed task.
func (t Task) Utilization() float64 {
	if t.PeriodNs <= 0 {
		return 0
	}
	return float64(t.SliceNs) / float64(t.PeriodNs)
}

// Valid reports whether the task is well formed: 0 < slice <= period.
// Analyze answers bad-task for a set holding any other task.
func (t Task) Valid() bool {
	return t.PeriodNs > 0 && t.SliceNs > 0 && t.SliceNs <= t.PeriodNs
}

// TaskSet is a set of periodic tasks competing for one CPU.
type TaskSet []Task

// Utilization returns the summed utilization of the set.
func (ts TaskSet) Utilization() float64 {
	u := 0.0
	for _, t := range ts {
		u += t.Utilization()
	}
	return u
}

// Canonical returns a sorted copy of the set: ascending by period, then by
// slice. Two task sets with the same multiset of tasks canonicalize to the
// same sequence, so digests — and therefore cached answers — agree no
// matter the order a client listed the tasks in.
func (ts TaskSet) Canonical() TaskSet {
	out := append(TaskSet(nil), ts...)
	canonSort(out)
	return out
}

// canonCmp orders tasks canonically: ascending by period, then by slice.
func canonCmp(a, b Task) int {
	if a.PeriodNs != b.PeriodNs {
		return cmp.Compare(a.PeriodNs, b.PeriodNs)
	}
	return cmp.Compare(a.SliceNs, b.SliceNs)
}

// canonSort sorts a set in place into canonical order. slices.SortFunc,
// not sort.Slice: this is on the hot path of every digest (cache keys,
// shard routing) and the reflection-based swapper costs several times the
// comparisons. Unstable sorting is safe — ties are identical Task values.
func canonSort(ts TaskSet) { slices.SortFunc(ts, canonCmp) }

// digestScratch pools the sort buffer canonScratch fills, so digesting
// and Memo lookups — which every Analyze, cache lookup, and shard route
// does — allocate nothing in the steady state.
var digestScratch = sync.Pool{New: func() any {
	buf := make(TaskSet, 0, 64)
	return &buf
}}

// Digest returns a 64-bit FNV-1a hash of the canonical task sequence. Equal
// multisets of tasks have equal digests; the digest is the cache key and
// the shard-routing key of the serving layer.
func (ts TaskSet) Digest() uint64 {
	bp := canonScratch(ts)
	h := digestOf(*bp)
	digestScratch.Put(bp)
	return h
}

// CanonicalDigest returns Canonical and Digest of the set with one sort:
// the digest is taken over the sorted copy it returns.
func (ts TaskSet) CanonicalDigest() (TaskSet, uint64) {
	canon := ts.Canonical()
	return canon, digestOf(canon)
}

// canonScratch copies ts into a pooled buffer and sorts it canonically;
// the caller returns the buffer with digestScratch.Put.
func canonScratch(ts TaskSet) *TaskSet {
	bp := digestScratch.Get().(*TaskSet)
	*bp = append((*bp)[:0], ts...)
	canonSort(*bp)
	return bp
}

// fnvOffset64 is the FNV-1a initial state: the digest of the empty set.
const fnvOffset64 = 14695981039346656037

// digestOf hashes an already-canonical sequence.
func digestOf(ts TaskSet) uint64 {
	h := uint64(fnvOffset64)
	for _, t := range ts {
		h = fnvTask(h, t)
	}
	return h
}

// fnvTask folds one task into an FNV-1a state: the period's eight bytes,
// then the slice's, least significant first. A digest is this step folded
// over the canonical sequence, so a state after any canonical prefix can
// be resumed (see Incremental's prefix states).
func fnvTask(h uint64, t Task) uint64 {
	return fnvInt64(fnvInt64(h, t.PeriodNs), t.SliceNs)
}

const fnvPrime64 = 1099511628211

// fnvPrimePow[k] is fnvPrime64^k. Folding a zero byte is a bare multiply
// (h^0 == h), so a value's k high zero bytes fold as one multiply by
// fnvPrimePow[k] — the same state, with fewer steps in the dependency
// chain that bounds hashing speed.
var fnvPrimePow = func() (pow [9]uint64) {
	pow[0] = 1
	for k := 1; k < len(pow); k++ {
		pow[k] = pow[k-1] * fnvPrime64
	}
	return pow
}()

// fnvInt64 folds v's eight little-endian bytes into an FNV-1a state.
func fnvInt64(h uint64, v int64) uint64 {
	x := uint64(v)
	n := (bits.Len64(x) + 7) / 8
	for i := 0; i < n; i++ {
		h ^= x & 0xff
		h *= fnvPrime64
		x >>= 8
	}
	return h * fnvPrimePow[8-n]
}

// Spec describes the platform and policy a task set is analyzed under.
type Spec struct {
	// OverheadNs is o, the worst-case cost of one local scheduler
	// invocation in nanoseconds (see SpecFor). The analysis charges 2*o
	// per job (jobCharge) and (n-1)*o once per n-task set (windowCharge).
	OverheadNs int64 `json:"overhead_ns"`
	// UtilizationLimit is the boot-time admission cap (fraction of 1.0);
	// the paper's default configuration uses 0.99.
	UtilizationLimit float64 `json:"utilization_limit"`
}

// SpecFor derives the analysis spec for a platform at a utilization
// limit: OverheadNs is the platform's worst-case invocation cost
// (machine.Spec.WorstSchedCycles), rounded up to whole nanoseconds. Every
// service-side analysis — the daemon, the public API, what-if verdicts —
// derives its spec here.
func SpecFor(m machine.Spec, utilLimit float64) Spec {
	c := sim.Time(m.WorstSchedCycles())
	ns := m.CyclesToNanos(c)
	if m.NanosToCycles(ns) < c {
		ns++
	}
	return Spec{OverheadNs: ns, UtilizationLimit: utilLimit}
}

// Reason says why an analysis rejected a task set (or OK).
type Reason uint8

const (
	// OK: the set is admissible.
	OK Reason = iota
	// BadTask: a task has a non-positive period or slice.
	BadTask
	// UtilBound: total utilization exceeds the utilization limit.
	UtilBound
	// HyperperiodMiss: once scheduler overhead is charged, the demand of
	// the jobs due by some deadline exceeds it, so EDF misses within the
	// hyperperiod.
	HyperperiodMiss
	// CheckpointBudget: the demand test would examine more than
	// maxCheckpoints deadlines; the set is rejected conservatively.
	CheckpointBudget
)

// String names the reason with the stable tags used on the wire.
func (r Reason) String() string {
	switch r {
	case OK:
		return "ok"
	case BadTask:
		return "bad-task"
	case UtilBound:
		return "util-cap"
	case HyperperiodMiss:
		return "hyperperiod-miss"
	case CheckpointBudget:
		return "checkpoint-budget"
	default:
		return fmt.Sprintf("Reason(%d)", uint8(r))
	}
}

// MarshalText renders the reason tag into JSON and text encodings.
func (r Reason) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

// UnmarshalText parses a reason tag, so clients can decode verdicts that
// travelled over the wire.
func (r *Reason) UnmarshalText(b []byte) error {
	for cand := OK; cand <= CheckpointBudget; cand++ {
		if string(b) == cand.String() {
			*r = cand
			return nil
		}
	}
	return fmt.Errorf("plan: unknown reason %q", b)
}

// SimResult reports the demand test of a set. It keeps the wire name
// "sim" of the hyperperiod simulation the test replaced.
type SimResult struct {
	// OK is true when every deadline's demand fits before it.
	OK bool `json:"ok"`
	// Reason is OK, BadTask, HyperperiodMiss or CheckpointBudget.
	Reason Reason `json:"reason"`
	// Steps is the number of deadlines the test examined.
	Steps int `json:"steps"`
}

// utilEpsilon matches the tolerance internal/core applies to its
// utilization-cap comparisons.
const utilEpsilon = 1e-12

// Verdict is the combined answer of both admission tests for one task set.
type Verdict struct {
	// Admit is the overall verdict: both the utilization bound and the
	// demand test accept the set.
	Admit bool `json:"admit"`
	// Reason is OK when admitted, else the first failing test's reason
	// (UtilBound before the demand test's reasons).
	Reason Reason `json:"reason"`
	// Utilization is the set's summed periodic utilization.
	Utilization float64 `json:"utilization"`
	// BoundOK reports the closed-form test: utilization <= limit.
	BoundOK bool `json:"bound_ok"`
	// Sim is the demand test's report. Note the paper's point: BoundOK
	// with !Sim.OK is the infeasible region — sets the bound admits but
	// the platform cannot schedule.
	Sim SimResult `json:"sim"`
	// Digest is the canonical task-set digest the verdict answers for.
	Digest uint64 `json:"digest"`
}

// AppendJSON appends the verdict's JSON object to b: byte for byte what
// encoding/json writes for the struct's tags, without reflection. The
// serving layer writes every verdict it answers with through it, and
// MarshalJSON delegates to it, so a Verdict has one encoder wherever it
// appears. Utilization must be finite, as in every verdict Analyze
// returns; MarshalJSON refuses a non-finite one, as encoding/json does.
func (v Verdict) AppendJSON(b []byte) []byte {
	b = append(b, `{"admit":`...)
	b = strconv.AppendBool(b, v.Admit)
	b = append(b, `,"reason":"`...)
	b = append(b, v.Reason.String()...)
	b = append(b, `","utilization":`...)
	b = appendFloatJSON(b, v.Utilization)
	b = append(b, `,"bound_ok":`...)
	b = strconv.AppendBool(b, v.BoundOK)
	b = append(b, `,"sim":{"ok":`...)
	b = strconv.AppendBool(b, v.Sim.OK)
	b = append(b, `,"reason":"`...)
	b = append(b, v.Sim.Reason.String()...)
	b = append(b, `","steps":`...)
	b = strconv.AppendInt(b, int64(v.Sim.Steps), 10)
	b = append(b, `},"digest":`...)
	b = strconv.AppendUint(b, v.Digest, 10)
	return append(b, '}')
}

// MarshalJSON encodes the verdict through AppendJSON.
func (v Verdict) MarshalJSON() ([]byte, error) {
	if math.IsNaN(v.Utilization) || math.IsInf(v.Utilization, 0) {
		return nil, fmt.Errorf("plan: verdict utilization %v is not a JSON number", v.Utilization)
	}
	return v.AppendJSON(nil), nil
}

// appendFloatJSON formats f as encoding/json formats a float64: the
// shortest 'f' form, or 'e' below 1e-6 and from 1e21 up, with a one-digit
// negative exponent left unpadded (e-9, not e-09).
func appendFloatJSON(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// Analyze runs both admission tests on the task set under the spec and
// returns the combined verdict. It is deterministic and side-effect-free:
// equal (spec, canonical set) pairs produce identical verdicts, and
// Incremental answers the same verdict for the same set.
func Analyze(spec Spec, set TaskSet) Verdict {
	bp := canonScratch(set)
	util, digest := set.Utilization(), digestOf(*bp)
	for _, t := range set {
		if !t.Valid() {
			digestScratch.Put(bp)
			return badTaskVerdict(util, digest)
		}
	}
	rp := rowScratch.Get().(*[]demandRow)
	*rp = appendRows((*rp)[:0], *bp, spec)
	v := judge(spec, util, digest, demandTest(*rp, windowCharge(len(set), spec.OverheadNs)))
	rowScratch.Put(rp)
	digestScratch.Put(bp)
	return v
}

// badTaskVerdict is the verdict of a set holding a malformed task.
func badTaskVerdict(util float64, digest uint64) Verdict {
	return Verdict{Reason: BadTask, Utilization: util, Sim: SimResult{Reason: BadTask}, Digest: digest}
}

// judge combines a well-formed set's utilization bound with its demand
// test into the verdict both engines answer.
func judge(spec Spec, util float64, digest uint64, sim SimResult) Verdict {
	v := Verdict{Utilization: util, Sim: sim, Digest: digest}
	v.BoundOK = util <= spec.UtilizationLimit+utilEpsilon
	v.Admit = v.BoundOK && sim.OK
	switch {
	case v.Admit:
		v.Reason = OK
	case !v.BoundOK:
		v.Reason = UtilBound
	default:
		v.Reason = sim.Reason
	}
	return v
}

// AnalyzeGang answers group admission the way Algorithm 1 does:
// all-or-nothing. The gang joins an existing admitted set only if the
// combined set passes both tests; a rejection admits no member. The verdict
// describes the combined set.
func AnalyzeGang(spec Spec, existing, gang TaskSet) Verdict {
	combined := make(TaskSet, 0, len(existing)+len(gang))
	combined = append(combined, existing...)
	combined = append(combined, gang...)
	return Analyze(spec, combined)
}

// CapacityReport is the what-if answer: how much more work fits on a CPU
// that already runs the given set.
type CapacityReport struct {
	// Utilization is the existing set's summed utilization.
	Utilization float64 `json:"utilization"`
	// BoundHeadroom is the closed-form headroom: limit - utilization
	// (clamped at zero).
	BoundHeadroom float64 `json:"bound_headroom"`
	// ProbePeriodNs is the period of the hypothetical extra task used to
	// measure real headroom.
	ProbePeriodNs int64 `json:"probe_period_ns"`
	// MaxExtraSliceNs is the largest slice an extra task with the probe
	// period could have and still be admitted (0 if even the smallest
	// probe is rejected).
	MaxExtraSliceNs int64 `json:"max_extra_slice_ns"`
	// MaxExtraUtilization is MaxExtraSliceNs / ProbePeriodNs — the real
	// additional utilization the platform can take at this granularity,
	// which is below BoundHeadroom exactly when scheduler overhead bites.
	MaxExtraUtilization float64 `json:"max_extra_utilization"`
}

// Capacity produces the what-if capacity report for a CPU running set. The
// probe period selects the granularity of the hypothetical extra work;
// probePeriodNs <= 0 picks the largest period in the set (so the probe
// adds no new period), or 1 ms for an empty set. The search is a
// binary search on the probe task's slice, each step a full Analyze.
func Capacity(spec Spec, set TaskSet, probePeriodNs int64) CapacityReport {
	return capacitySearch(spec, set, probePeriodNs, func(probe Task) bool {
		cand := append(append(TaskSet(nil), set...), probe)
		return Analyze(spec, cand).Admit
	})
}

// capacitySearch is Capacity's search over an injectable admit probe, so
// the memoized path can answer each step from a retained demand table
// while producing the identical report: the probe's Admit bits are the
// only thing the search consumes.
func capacitySearch(spec Spec, set TaskSet, probePeriodNs int64, admitsProbe func(Task) bool) CapacityReport {
	r := CapacityReport{Utilization: set.Utilization()}
	r.BoundHeadroom = spec.UtilizationLimit - r.Utilization
	if r.BoundHeadroom < 0 {
		r.BoundHeadroom = 0
	}
	if probePeriodNs <= 0 {
		for _, t := range set {
			if t.PeriodNs > probePeriodNs {
				probePeriodNs = t.PeriodNs
			}
		}
		if probePeriodNs <= 0 {
			probePeriodNs = 1_000_000 // 1 ms
		}
	}
	r.ProbePeriodNs = probePeriodNs

	admits := func(sliceNs int64) bool {
		return admitsProbe(Task{PeriodNs: probePeriodNs, SliceNs: sliceNs})
	}
	lo, hi := int64(0), probePeriodNs // invariant: admits(lo), !admits(hi+1)
	if !admits(1) {
		return r
	}
	if admits(probePeriodNs) {
		lo = probePeriodNs
	} else {
		lo = 1
		for hi-lo > 1 { // binary search the admit/reject edge
			mid := lo + (hi-lo)/2
			if admits(mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
	}
	r.MaxExtraSliceNs = lo
	r.MaxExtraUtilization = float64(lo) / float64(probePeriodNs)
	return r
}
