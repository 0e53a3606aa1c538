package serve

import (
	"sync/atomic"
	"time"
)

// greedyDrain is the batching loop behind the query shards and the cluster
// nodes: block for one item, take whatever else is already queued (up to
// max) without waiting, and hand the batch to apply. A lone item is
// answered at once, and batches — and with them shared WAL group commits —
// form exactly when items arrive faster than the worker applies them. It
// returns once ch is closed and drained.
func greedyDrain[T any](ch <-chan T, max int, apply func([]T)) {
	batch := make([]T, 0, max)
	for first := range ch {
		batch = append(batch[:0], first)
	fill:
		for len(batch) < max {
			select {
			case x, ok := <-ch:
				if !ok {
					break fill
				}
				batch = append(batch, x)
			default:
				break fill
			}
		}
		apply(batch)
	}
}

// queueSeedServiceNs seeds a shard's or node's service-time estimate before
// its first batch: an admission verdict or a committed mutation takes tens
// of microseconds.
const queueSeedServiceNs = int64(20 * time.Microsecond)

// serviceTime is an EWMA (alpha 1/8) of one queue item's service time. A
// shed reply quotes retryAfterNs from it: how long the work queued ahead of
// a retry takes to drain.
type serviceTime struct {
	ns atomic.Int64
}

// begin starts timing a batch when other items arrived with or behind
// the first (queued counts the batch plus the queue). A quote matters only
// once a queue backs up, so a lone item never pays for the clock reads.
func (s *serviceTime) begin(queued int) time.Time {
	if queued <= 1 {
		return time.Time{}
	}
	return time.Now()
}

// end folds in a batch of items begun at start; the zero time is untimed.
func (s *serviceTime) end(start time.Time, items int) {
	if !start.IsZero() {
		s.observe(time.Since(start), items)
	}
}

// observe folds in a batch of items that took elapsed to serve. Several
// simulation slots may finish at once, so the fold is a CAS loop.
func (s *serviceTime) observe(elapsed time.Duration, items int) {
	per := elapsed.Nanoseconds() / int64(items)
	for {
		old := s.ns.Load()
		if s.ns.CompareAndSwap(old, old+(per-old)/8) {
			return
		}
	}
}

// retryAfterNs quotes (queued+1) items of service time spread over workers.
func (s *serviceTime) retryAfterNs(queued, workers int) int64 {
	return int64(queued+1) * s.ns.Load() / int64(workers)
}
