package sim

// EventClass distinguishes hardware from software events. Hardware events
// (timer expiry, interrupt delivery) occur at fixed wall-clock instants and
// are unaffected by SMIs except that their handling is deferred until the
// freeze ends. Software events (completion of a compute burst, end of a
// scheduler pass) represent CPU execution and therefore slip by the full
// duration of any overlapping freeze.
type EventClass uint8

const (
	// Hard events model hardware that keeps counting during an SMI.
	Hard EventClass = iota
	// Soft events model software execution that stops during an SMI.
	Soft
)

// Handler is an event callback. It receives the simulated time at which the
// event is being handled, which for hard events deferred by a freeze may be
// later than the time the event was scheduled for.
type Handler func(now Time)

// PayloadHandler is an event callback that also receives the payload its
// event was scheduled with. It is bound once — a package-level function or
// a method value its owner makes at construction — and shared by every
// event of its kind, so scheduling one allocates nothing: what differs
// from event to event travels in ref and arg, not in a fresh closure.
type PayloadHandler func(now Time, ref any, arg uint64)

// callHandler is the PayloadHandler behind Schedule, After and NewEvent:
// the plain Handler rides in ref. A func value is pointer-shaped, so
// storing it in ref does not allocate either.
func callHandler(now Time, ref any, _ uint64) { ref.(Handler)(now) }

// Event is a scheduled occurrence in the simulation: an intrusive node in
// one of the engine's two class heaps, its payload, and, for pooled events,
// a free-list link.
//
// Payload contract: an event carries a handler and a payload (ref, arg),
// and Step hands the payload back to the handler when the event fires.
// ref should hold a pointer (or another pointer-shaped value: a func, a
// map, a chan) so that storing it does not allocate. A pooled event drops
// its handler and ref when the engine reclaims it, so the free list never
// keeps the referenced objects alive.
//
// Ownership contract: events returned by Schedule/After are pooled — the
// engine reclaims them once they fire or once their cancellation is
// collected, after which the object may be reused for an unrelated later
// Schedule. Callers may hold the pointer only until the event fires or
// they cancel it; Cancel before firing is always safe, but a retained
// pointer must not be used (Cancel, Reschedule, At) after the handler has
// run. Call sites that re-arm across firings hold a persistent event from
// NewEvent instead, which is never pooled and may be Rescheduled freely.
type Event struct {
	// key orders the event within its class heap. For hard events it is
	// the absolute firing time. For soft events it is slip-relative:
	// scheduled-at minus the cumulative SMI missing time observed when the
	// event was (re)scheduled, so that effective time = key + missingTime.
	// A freeze then shifts every pending soft event at once by advancing
	// missingTime — O(1) instead of the former rescan-and-reheapify.
	key       Time
	seq       uint64
	fn        PayloadHandler
	ref       any
	arg       uint64
	engine    *Engine
	next      *Event // free-list link while pooled and idle
	index     int32  // position in its class heap, -1 when not queued
	class     EventClass
	cancelled bool
	pooled    bool
}

// At reports the time the event is currently scheduled for (including SMI
// slip accumulated so far, and deferral for frozen hard events). It is
// meaningful only while the caller still owns the event.
func (ev *Event) At() Time {
	if ev.class == Soft {
		return ev.key + Time(ev.engine.missingTime)
	}
	return ev.key
}

// Cancelled reports whether Cancel was called before the event fired.
func (ev *Event) Cancelled() bool { return ev.cancelled }

// Armed reports whether the event is queued to fire.
func (ev *Event) Armed() bool { return ev.index >= 0 && !ev.cancelled }

// Cancel removes the event from the queue. Cancelling an event that has
// already fired or been cancelled is a no-op. Cancellation is lazy: the
// event is tombstoned in place and collected when it reaches the head of
// its heap or at the next compaction, so Cancel is O(1).
func (ev *Event) Cancel() {
	if ev.cancelled {
		return
	}
	ev.cancelled = true
	if ev.index < 0 {
		return
	}
	e := ev.engine
	e.live--
	e.tombstones++
	e.maybeCompact()
}

// Reschedule arms the event to fire at time at, assigning it a fresh
// sequence number exactly as a new Schedule would. It works in place: a
// queued event (cancelled or not) is re-keyed and fixed within its heap, an
// idle persistent event is pushed. It panics if at precedes the current
// time, or when called on a pooled event that already fired (the object is
// no longer owned by the caller).
func (ev *Event) Reschedule(at Time) {
	e := ev.engine
	if at < e.now {
		panic("sim: scheduling event in the past")
	}
	e.seq++
	key := at
	if ev.class == Soft {
		key -= Time(e.missingTime)
	}
	ev.seq = e.seq
	if ev.index >= 0 {
		if ev.cancelled {
			ev.cancelled = false
			e.live++
			e.tombstones--
		}
		ev.key = key
		e.heapFor(ev).fix(int(ev.index))
		return
	}
	if ev.pooled {
		panic("sim: Reschedule on a pooled event after it fired")
	}
	ev.cancelled = false
	ev.key = key
	e.heapFor(ev).push(ev)
	e.live++
}

// RescheduleAfter arms the event to fire d cycles from now.
func (ev *Event) RescheduleAfter(d Duration) {
	ev.Reschedule(ev.engine.now + d)
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; parallelism in this repository always lives one level up,
// with many independent Engines running on separate goroutines.
//
// Events live in two intrusive 4-ary min-heaps, one per class. Hard events
// are keyed on absolute time; soft events on slip-relative time (see
// Event.key), which makes Freeze O(1). The next event overall is the
// smaller of the two heads under (effective time, seq) — seq is globally
// unique across both heaps, so the order is total and identical to the
// former single-queue implementation.
type Engine struct {
	hard        eventHeap
	soft        eventHeap
	now         Time
	seq         uint64
	frozenUntil Time
	missingTime Duration // cumulative SMI freeze time observed so far
	steps       uint64
	live        int    // queued, non-cancelled events
	tombstones  int    // cancelled events still occupying heap slots
	free        *Event // pooled events awaiting reuse
}

// NewEngine returns an engine with the clock at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Reset returns the engine to the state NewEngine leaves it in — clock,
// sequence numbers, freeze and step counters at zero, nothing queued —
// while keeping its storage: queued pooled events go back to the free
// list, queued persistent events are left idle (their owners may re-arm
// them), and both heap arrays keep their capacity. A simulation built on
// a reset engine makes the same Schedule calls in the same order as one
// built on a new engine, so it assigns the same sequence numbers and
// handles the same events at the same times.
func (e *Engine) Reset() {
	for _, h := range [...]*eventHeap{&e.hard, &e.soft} {
		for i, ev := range h.a {
			ev.index = -1
			ev.cancelled = false
			e.release(ev)
			h.a[i] = nil
		}
		h.a = h.a[:0]
	}
	*e = Engine{hard: e.hard, soft: e.soft, free: e.free}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events handled so far.
func (e *Engine) Steps() uint64 { return e.steps }

// MissingTime returns the cumulative duration of all freezes (SMIs) that
// have occurred so far.
func (e *Engine) MissingTime() Duration { return e.missingTime }

// FrozenUntil returns the end of the current freeze interval, or a time in
// the past if the platform is not frozen.
func (e *Engine) FrozenUntil() Time { return e.frozenUntil }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.live }

func (e *Engine) heapFor(ev *Event) *eventHeap {
	if ev.class == Soft {
		return &e.soft
	}
	return &e.hard
}

// alloc takes an event from the free list, or makes one.
func (e *Engine) alloc() *Event {
	if ev := e.free; ev != nil {
		e.free = ev.next
		ev.next = nil
		return ev
	}
	return &Event{engine: e, index: -1}
}

// release returns a collected pooled event to the free list, dropping its
// handler and payload; persistent events are simply left unqueued.
func (e *Engine) release(ev *Event) {
	if !ev.pooled {
		return
	}
	ev.fn = nil
	ev.ref = nil
	ev.next = e.free
	e.free = ev
}

// Schedule enqueues fn to run at time at with the given class. It panics if
// at precedes the current time. The returned event is pooled: see the
// ownership contract on Event.
func (e *Engine) Schedule(at Time, class EventClass, fn Handler) *Event {
	return e.SchedulePayload(at, class, callHandler, fn, 0)
}

// After enqueues fn to run d cycles from now.
func (e *Engine) After(d Duration, class EventClass, fn Handler) *Event {
	return e.SchedulePayload(e.now+d, class, callHandler, fn, 0)
}

// SchedulePayload enqueues fn(now, ref, arg) to run at time at with the
// given class. It panics if at precedes the current time. The returned
// event is pooled: see the ownership and payload contracts on Event.
func (e *Engine) SchedulePayload(at Time, class EventClass, fn PayloadHandler, ref any, arg uint64) *Event {
	if at < e.now {
		panic("sim: scheduling event in the past")
	}
	ev := e.alloc()
	ev.class = class
	ev.fn = fn
	ev.ref = ref
	ev.arg = arg
	ev.pooled = true
	ev.cancelled = false
	e.seq++
	ev.seq = e.seq
	if class == Soft {
		ev.key = at - Time(e.missingTime)
		e.soft.push(ev)
	} else {
		ev.key = at
		e.hard.push(ev)
	}
	e.live++
	return ev
}

// AfterPayload enqueues fn(now, ref, arg) to run d cycles from now.
func (e *Engine) AfterPayload(d Duration, class EventClass, fn PayloadHandler, ref any, arg uint64) *Event {
	return e.SchedulePayload(e.now+d, class, fn, ref, arg)
}

// NewEvent returns an idle persistent event bound to class and fn. It is
// not queued until Reschedule is called, never enters the pool, and may be
// re-armed (Reschedule) or disarmed (Cancel) any number of times —
// including from inside its own handler. This is the allocation-free
// re-arm primitive behind one-shot timers, device interrupt sources and
// the other steady-state churn sites.
func (e *Engine) NewEvent(class EventClass, fn Handler) *Event {
	return &Event{engine: e, class: class, fn: callHandler, ref: fn, index: -1}
}

// Freeze models an SMI: all software progress stops for d cycles starting
// now. Every pending soft event slips by d; hard events are untouched but
// will be handled no earlier than the freeze end. Nested freezes extend the
// current one. Because soft events are keyed slip-relative, the whole
// shift is the two counter updates below — O(1) regardless of queue size.
func (e *Engine) Freeze(d Duration) {
	if d <= 0 {
		return
	}
	end := e.now + d
	if e.frozenUntil > e.now {
		// Overlapping SMI: extend. The incremental slip is the extension.
		d = end - e.frozenUntil
		if d <= 0 {
			return
		}
		end = e.frozenUntil + d
	}
	e.frozenUntil = end
	e.missingTime += d
}

// maybeCompact rebuilds the heaps once cancelled events outnumber live
// ones (and are numerous enough to matter), bounding the memory and
// pop-skip cost of lazy cancellation.
func (e *Engine) maybeCompact() {
	const minTombstones = 64
	if e.tombstones >= minTombstones && e.tombstones > e.live {
		e.hard.compact(e)
		e.soft.compact(e)
		e.tombstones = 0
	}
}

// collectHeads discards cancelled events sitting at either heap head so
// the heads are live (or the heaps empty).
func (e *Engine) collectHeads() {
	for {
		hh := e.hard.head()
		if hh == nil || !hh.cancelled {
			break
		}
		e.hard.popMin()
		e.tombstones--
		e.release(hh)
	}
	for {
		sh := e.soft.head()
		if sh == nil || !sh.cancelled {
			break
		}
		e.soft.popMin()
		e.tombstones--
		e.release(sh)
	}
}

// popNext removes and returns the next live event in (effective time, seq)
// order across both heaps, or nil if none remain. Hard events are compared
// at their stored (pre-deferral) key, exactly as the single-queue
// implementation did; deferral happens in Step.
func (e *Engine) popNext() *Event {
	e.collectHeads()
	hh, sh := e.hard.head(), e.soft.head()
	if hh == nil && sh == nil {
		return nil
	}
	var ev *Event
	switch {
	case sh == nil:
		ev = e.hard.popMin()
	case hh == nil:
		ev = e.soft.popMin()
	default:
		sa := sh.key + Time(e.missingTime)
		if hh.key < sa || (hh.key == sa && hh.seq < sh.seq) {
			ev = e.hard.popMin()
		} else {
			ev = e.soft.popMin()
		}
	}
	e.live--
	return ev
}

// Step handles the next event, advancing the clock. It returns false when
// the queue is empty. Hard events scheduled inside a freeze window are
// deferred to the freeze end before their handler runs.
func (e *Engine) Step() bool {
	for {
		ev := e.popNext()
		if ev == nil {
			return false
		}
		if ev.class == Hard && ev.key < e.frozenUntil {
			// Hardware fired during an SMI; handling waits for the freeze
			// to end. Requeue at the deferred time with a fresh sequence
			// number so ordering with other deferred events stays stable.
			ev.key = e.frozenUntil
			e.seq++
			ev.seq = e.seq
			e.hard.push(ev)
			e.live++
			continue
		}
		at := ev.key
		if ev.class == Soft {
			at += Time(e.missingTime)
		}
		if at < e.now {
			panic("sim: time went backwards")
		}
		e.now = at
		e.steps++
		ev.fn(at, ev.ref, ev.arg)
		// Reclaim the event unless the handler re-armed it (persistent
		// events rescheduling themselves).
		if ev.pooled && ev.index < 0 {
			e.release(ev)
		}
		return true
	}
}

// nextAt reports the effective handling time of the next live event
// (accounting for hard-event deferral), or false if the queue is empty.
func (e *Engine) nextAt() (Time, bool) {
	e.collectHeads()
	hh, sh := e.hard.head(), e.soft.head()
	if hh == nil && sh == nil {
		return 0, false
	}
	head := hh
	switch {
	case hh == nil:
		head = sh
	case sh == nil:
	default:
		sa := sh.key + Time(e.missingTime)
		if !(hh.key < sa || (hh.key == sa && hh.seq < sh.seq)) {
			head = sh
		}
	}
	at := head.key
	if head.class == Soft {
		at += Time(e.missingTime)
	} else if at < e.frozenUntil {
		at = e.frozenUntil
	}
	return at, true
}

// Run handles events until the queue is empty or the clock passes until.
// Events at exactly until are handled. It returns the number of events
// handled.
func (e *Engine) Run(until Time) uint64 {
	var n uint64
	for {
		next, ok := e.nextAt()
		if !ok || next > until {
			break
		}
		if !e.Step() {
			break
		}
		n++
	}
	// Advance the clock to until (the queue is drained or its head lies
	// beyond) so callers see a consistent stopping time.
	if e.now < until {
		e.now = until
	}
	return n
}

// RunAll handles events until the queue is empty, with a safety bound on the
// number of events to keep runaway simulations from spinning forever. It
// panics if the bound is exceeded.
func (e *Engine) RunAll(maxEvents uint64) uint64 {
	var n uint64
	for e.Step() {
		n++
		if n > maxEvents {
			panic("sim: event bound exceeded; simulation is not terminating")
		}
	}
	return n
}
