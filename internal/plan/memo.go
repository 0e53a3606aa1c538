package plan

import (
	"slices"
	"sync"
)

// DefaultMemoEntries is the Memo capacity when the caller passes <= 0.
const DefaultMemoEntries = 1024

// Memo is a digest-keyed LRU over canonically-equal task sets that caches
// the admission verdict of each set and, once a capacity question asks
// for it, the set's demand table (an Incremental committed to the
// canonical set), so repeated Analyze questions skip the analysis and
// capacity binary-search steps patch the table instead of rebuilding it.
// It is the serving layer's one cache: each shard's analyze and capacity
// queries share one Memo.
//
// Answer convention: the Memo canonicalizes before analyzing, so
// Memo.Analyze(set) is bit-identical to Analyze(spec, set.Canonical()) —
// the order a client listed tasks in does not perturb float summation.
// Verdicts never go stale — they are pure functions of (spec, canonical
// set) — so the only invalidation is LRU eviction. Each entry keeps its
// canonical set, and a hit must match it task for task, not just by the
// 64-bit digest: a set whose digest collides with a cached set's evicts
// that entry and is analyzed as a miss, so a collision can never answer
// with another set's verdict.
//
// A Memo is safe for concurrent use; operations serialize on an internal
// lock because the cached demand tables are stateful single-owner engines.
type Memo struct {
	spec Spec
	cap  int

	mu      sync.Mutex
	lru     memoEntry // recency ring sentinel: next is most recent, prev is evicted first
	entries map[uint64]*memoEntry

	hits   int64
	misses int64
}

// memoEntry is one cached set: its canonical tasks, its verdict, and its
// demand table once a capacity question has built it. The
// recency ring is intrusive rather than a container/list so that an entry
// is one heap object besides its set: a serving shard holds thousands of
// entries, and every object adds to each garbage collection's mark work.
type memoEntry struct {
	prev, next *memoEntry // recency ring
	key        uint64
	set        TaskSet // canonical; a hit must equal it
	verdict    Verdict
	table      *Incremental // committed to set; nil until tableFor builds it
}

// tableFor returns the entry's demand table, building it from the stored
// set on first use, so a set that is only ever analyzed never pays for
// one. Callers hold the Memo's lock.
func (e *memoEntry) tableFor(spec Spec) *Incremental {
	if e.table == nil {
		e.table = NewIncremental(spec)
		e.table.rebuild(e.set)
	}
	return e.table
}

// MemoStats reports cache effectiveness.
type MemoStats struct {
	Hits    int64
	Misses  int64
	Entries int
}

// NewMemo creates a memo for spec holding up to entries cached sets
// (DefaultMemoEntries when entries <= 0).
func NewMemo(spec Spec, entries int) *Memo {
	if entries <= 0 {
		entries = DefaultMemoEntries
	}
	m := &Memo{spec: spec, cap: entries, entries: make(map[uint64]*memoEntry, entries)}
	m.lru.prev, m.lru.next = &m.lru, &m.lru
	return m
}

// Spec returns the platform spec answers are computed under.
func (m *Memo) Spec() Spec { return m.spec }

// Len returns the number of cached sets.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// Stats reports hit/miss counts and the live entry count.
func (m *Memo) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{Hits: m.hits, Misses: m.misses, Entries: len(m.entries)}
}

// Analyze returns the admission verdict for the set — bit-identical to
// Analyze(spec, set.Canonical()). A hit returns the stored verdict
// without analyzing (and without allocating); a miss runs the analysis
// once and caches the verdict.
func (m *Memo) Analyze(set TaskSet) Verdict {
	bp := canonScratch(set)
	v, _ := m.AnalyzeCanonical(*bp, digestOf(*bp))
	digestScratch.Put(bp)
	return v
}

// AnalyzeCanonical is Analyze for a set already in canonical order, with
// its digest (the serving layer has both from routing the query). hit
// reports whether the verdict came from the cache. The Memo copies canon
// only on a miss, so the caller may reuse it afterwards.
func (m *Memo) AnalyzeCanonical(canon TaskSet, digest uint64) (v Verdict, hit bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, hit := m.entryLocked(canon, digest)
	return e.verdict, hit
}

// Capacity produces the what-if headroom report for a CPU running set —
// identical to Capacity(spec, set.Canonical(), probePeriodNs) — with
// every binary-search probe answered by patching the cached demand table
// instead of building a fresh one.
func (m *Memo) Capacity(set TaskSet, probePeriodNs int64) CapacityReport {
	bp := canonScratch(set)
	defer digestScratch.Put(bp)
	m.mu.Lock()
	defer m.mu.Unlock()
	e, _ := m.entryLocked(*bp, digestOf(*bp))
	table := e.tableFor(m.spec)
	var probeBuf [1]Task
	return capacitySearch(m.spec, table.tasks, probePeriodNs, func(probe Task) bool {
		probeBuf[0] = probe
		return table.EvaluateGang(probeBuf[:]).Admit
	})
}

// entryLocked returns the cached entry for a canonical set and whether it
// was a hit, analyzing and inserting it (with LRU eviction) on a miss. An
// entry under the same digest that holds a different set is a digest
// collision: it is evicted and the lookup counts as a miss. Callers hold
// m.mu.
func (m *Memo) entryLocked(canon TaskSet, digest uint64) (*memoEntry, bool) {
	if e, ok := m.entries[digest]; ok {
		e.unlink()
		if slices.Equal(e.set, canon) {
			m.hits++
			m.pushFront(e)
			return e, true
		}
		delete(m.entries, digest)
	}
	m.misses++
	set := append(TaskSet(nil), canon...)
	e := &memoEntry{key: digest, set: set, verdict: Analyze(m.spec, set)}
	m.entries[digest] = e
	m.pushFront(e)
	if len(m.entries) > m.cap {
		oldest := m.lru.prev
		oldest.unlink()
		delete(m.entries, oldest.key)
	}
	return e, false
}

// pushFront links e in as the most recently used entry. Callers hold m.mu.
func (m *Memo) pushFront(e *memoEntry) {
	e.prev, e.next = &m.lru, m.lru.next
	e.next.prev, m.lru.next = e, e
}

// unlink takes e out of the recency ring. Callers hold the Memo's lock.
func (e *memoEntry) unlink() { e.prev.next, e.next.prev = e.next, e.prev }
