package sim

// eventHeap is a monomorphic intrusive 4-ary min-heap of *Event ordered by
// (key, seq). It replaces container/heap for the engine's hot path: no
// interface boxing, no Swap-callback indirection, and a 4-ary layout that
// roughly halves tree depth for the queue sizes the simulations run at
// (hundreds to tens of thousands of pending events), trading slightly more
// comparisons per level for better cache behaviour on the way down.
//
// Events carry their own heap index so the engine can fix an entry in
// place after Reschedule without a search. Removal is not supported — the
// engine cancels lazily (tombstone + compaction) instead.
type eventHeap struct {
	a []*Event
}

func eventLess(x, y *Event) bool {
	if x.key != y.key {
		return x.key < y.key
	}
	return x.seq < y.seq
}

func (h *eventHeap) len() int { return len(h.a) }

// head returns the minimum event without removing it, or nil when empty.
func (h *eventHeap) head() *Event {
	if len(h.a) == 0 {
		return nil
	}
	return h.a[0]
}

func (h *eventHeap) push(ev *Event) {
	h.a = append(h.a, ev)
	h.siftUp(len(h.a)-1, ev)
}

// popMin removes and returns the minimum event. It must not be called on
// an empty heap.
func (h *eventHeap) popMin() *Event {
	min := h.a[0]
	n := len(h.a) - 1
	last := h.a[n]
	h.a[n] = nil
	h.a = h.a[:n]
	if n > 0 {
		h.siftDown(0, last)
	}
	min.index = -1
	return min
}

// fix restores the heap invariant after the event at position i changed
// its key or seq.
func (h *eventHeap) fix(i int) {
	ev := h.a[i]
	if i > 0 && eventLess(ev, h.a[(i-1)/4]) {
		h.siftUp(i, ev)
		return
	}
	h.siftDown(i, ev)
}

// siftUp places ev, currently conceptually at position i, by walking the
// parent chain. It writes each displaced parent once instead of swapping.
func (h *eventHeap) siftUp(i int, ev *Event) {
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(ev, h.a[p]) {
			break
		}
		h.a[i] = h.a[p]
		h.a[i].index = int32(i)
		i = p
	}
	h.a[i] = ev
	ev.index = int32(i)
}

// siftDown places ev, currently conceptually at position i, by walking
// toward the leaves through the smallest child at each level.
func (h *eventHeap) siftDown(i int, ev *Event) {
	n := len(h.a)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if eventLess(h.a[j], h.a[m]) {
				m = j
			}
		}
		if !eventLess(h.a[m], ev) {
			break
		}
		h.a[i] = h.a[m]
		h.a[i].index = int32(i)
		i = m
	}
	h.a[i] = ev
	ev.index = int32(i)
}

// compact drops every tombstoned (cancelled) event, handing pooled ones
// back to the engine, and re-heapifies the survivors in place. Ordering of
// the survivors is unaffected: the comparator is a total order (seq is
// unique), so any valid heap arrangement pops in the same sequence.
func (h *eventHeap) compact(e *Engine) {
	kept := h.a[:0]
	for _, ev := range h.a {
		if ev.cancelled {
			ev.index = -1
			e.release(ev)
			continue
		}
		kept = append(kept, ev)
	}
	for i := len(kept); i < len(h.a); i++ {
		h.a[i] = nil
	}
	h.a = kept
	n := len(h.a)
	for i := range h.a {
		h.a[i].index = int32(i)
	}
	if n < 2 {
		return
	}
	for i := (n - 2) / 4; i >= 0; i-- {
		h.siftDown(i, h.a[i])
	}
}
