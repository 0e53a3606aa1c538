package core

// The local scheduler's queues are bounded binary heaps, mirroring the
// paper's compile-time bound on the total number of threads: "each local
// scheduler uses fixed size priority queues to implement the pending and
// real-time run queues" (Section 3.3). The fixed size is enforced as a
// count — Push refuses the thread past the bound — while the backing
// storage starts empty and grows on demand, so a kernel booted for two
// threads does not allocate room for a thousand. Modelled scheduler cost
// is unaffected: pass cycles come from machine.Spec, not from the host's
// slice growth.

// threadOrder compares two threads for a particular queue.
type threadOrder func(a, b *Thread) bool

// threadHeap is a bounded binary min-heap of threads; cap is the bound.
// Each thread tracks its index via qIdx, enabling O(log n) removal of
// arbitrary elements.
type threadHeap struct {
	items []*Thread
	less  threadOrder
	cap   int
}

func newThreadHeap(capacity int, less threadOrder) *threadHeap {
	return &threadHeap{less: less, cap: capacity}
}

// reset empties the heap for a new boot, keeping its backing array.
func (h *threadHeap) reset(capacity int, less threadOrder) {
	clear(h.items)
	*h = threadHeap{items: h.items[:0], less: less, cap: capacity}
}

func (h *threadHeap) Len() int { return len(h.items) }

// Peek returns the minimum without removing it, or nil when empty.
func (h *threadHeap) Peek() *Thread {
	if len(h.items) == 0 {
		return nil
	}
	return h.items[0]
}

// Push inserts t. It returns ErrTooManyThreads when the compile-time bound
// is exceeded.
func (h *threadHeap) Push(t *Thread) error {
	if len(h.items) >= h.cap {
		return ErrTooManyThreads
	}
	t.qIdx = len(h.items)
	h.items = append(h.items, t)
	h.up(t.qIdx)
	return nil
}

// Pop removes and returns the minimum, or nil when empty.
func (h *threadHeap) Pop() *Thread {
	if len(h.items) == 0 {
		return nil
	}
	top := h.items[0]
	h.removeAt(0)
	return top
}

// Remove deletes t from the heap. It panics if t is not in this heap's
// recorded position (a scheduler invariant violation).
func (h *threadHeap) Remove(t *Thread) {
	i := t.qIdx
	if i < 0 || i >= len(h.items) || h.items[i] != t {
		panic("core: thread heap corruption: removing absent thread")
	}
	h.removeAt(i)
}

// Contains reports whether t is present at its recorded index.
func (h *threadHeap) Contains(t *Thread) bool {
	i := t.qIdx
	return i >= 0 && i < len(h.items) && h.items[i] == t
}

// Fix restores heap order after t's key changed in place.
func (h *threadHeap) Fix(t *Thread) {
	i := t.qIdx
	if i < 0 || i >= len(h.items) || h.items[i] != t {
		panic("core: thread heap corruption: fixing absent thread")
	}
	if !h.down(i) {
		h.up(i)
	}
}

// All calls fn for each queued thread in unspecified order.
func (h *threadHeap) All(fn func(t *Thread)) {
	for _, t := range h.items {
		fn(t)
	}
}

func (h *threadHeap) removeAt(i int) {
	last := len(h.items) - 1
	removed := h.items[i]
	h.swap(i, last)
	h.items[last] = nil
	h.items = h.items[:last]
	if i < last {
		if !h.down(i) {
			h.up(i)
		}
	}
	removed.qIdx = -1
}

func (h *threadHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].qIdx = i
	h.items[j].qIdx = j
}

func (h *threadHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *threadHeap) down(i0 int) bool {
	i := i0
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && h.less(h.items[right], h.items[left]) {
			child = right
		}
		if !h.less(h.items[child], h.items[i]) {
			break
		}
		h.swap(i, child)
		i = child
	}
	return i > i0
}

// byArrival orders the pending queue: earliest next arrival first.
func byArrival(a, b *Thread) bool {
	if a.arrivalNs != b.arrivalNs {
		return a.arrivalNs < b.arrivalNs
	}
	return a.id < b.id
}

// byDeadline orders the real-time run queue: earliest deadline first (EDF).
func byDeadline(a, b *Thread) bool {
	if a.deadlineNs != b.deadlineNs {
		return a.deadlineNs < b.deadlineNs
	}
	return a.id < b.id
}

// byPriorityRR orders the non-real-time run queue: lower priority value
// first, round-robin (insertion sequence) within a level.
func byPriorityRR(a, b *Thread) bool {
	if a.cons.Priority != b.cons.Priority {
		return a.cons.Priority < b.cons.Priority
	}
	if a.rrSeq != b.rrSeq {
		return a.rrSeq < b.rrSeq
	}
	return a.id < b.id
}
