package durable

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// shadow is the core both durability stores embed: the shadow State, the
// log position it has folded up to, the snapshot cadence and background
// snapshot, the fail-open degrade latch, Stats, and the final snapshot on
// Close. The shadow is always the fold of a log prefix; which log — the
// local WAL (Store) or the replicated one (ReplStore) — is the embedding
// store's business.
//
// A shadow that hits a write error or a record it cannot absorb latches
// degraded: it stops folding and snapshotting (so the last durable state
// stays trustworthy) but the cluster keeps serving from memory —
// fail-open, surfaced through Stats().Degraded and the metrics.
type shadow struct {
	cfg      Config
	recovery RecoveryResult
	// compact, when non-nil, drops the log segments a published snapshot
	// covers; nil when the replication layer owns the log.
	compact func(lsn uint64) error

	mu             sync.Mutex
	state          *State
	appliedLSN     uint64
	appliedTerm    uint64
	lastSnapLSN    uint64
	recSinceSnap   int64
	bytesSinceSnap int64
	closed         bool
	degradedErr    error

	snapshotting atomic.Bool
	snapWG       sync.WaitGroup
	snapshots    atomic.Int64
	snapErrors   atomic.Int64
}

// openShadow is the open prelude both stores share: defaults, the data
// directory, the newest valid snapshot, and the node-count check.
func openShadow(cfg Config) (*shadow, error) {
	cfg.fillDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("durable: Config.Dir is required")
	}
	if cfg.NumNodes <= 0 {
		return nil, fmt.Errorf("durable: NumNodes %d, want > 0", cfg.NumNodes)
	}
	if err := cfg.FS.MkdirAll(cfg.Dir); err != nil {
		return nil, fmt.Errorf("durable: mkdir %s: %w", cfg.Dir, err)
	}
	state, lsn, term, specChanged, bad, err := loadLatestSnapshot(cfg.FS, cfg.Dir, cfg.Spec)
	if err != nil {
		return nil, err
	}
	if state == nil {
		state = NewState(cfg.NumNodes)
	} else {
		if len(state.Nodes) > cfg.NumNodes {
			return nil, fmt.Errorf("durable: snapshot holds %d nodes but %d are configured; "+
				"drain before shrinking the cluster", len(state.Nodes), cfg.NumNodes)
		}
		for len(state.Nodes) < cfg.NumNodes {
			state.Nodes = append(state.Nodes, nil)
		}
	}
	return &shadow{
		cfg:         cfg,
		state:       state,
		appliedLSN:  lsn,
		appliedTerm: term,
		lastSnapLSN: lsn,
		recovery: RecoveryResult{
			SnapshotLSN:  lsn,
			SnapshotTerm: term,
			BadSnapshots: bad,
			SpecChanged:  specChanged,
		},
	}, nil
}

// RecoveredState exposes the shadow for the single-threaded boot window:
// the caller restores its engines from it before any record is folded in
// and must not touch it afterwards.
func (s *shadow) RecoveredState() *State { return s.state }

// Recovery returns what boot-time recovery found.
func (s *shadow) Recovery() RecoveryResult { return s.recovery }

// AppliedLSN reports the log position the shadow has folded up to.
func (s *shadow) AppliedLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appliedLSN
}

// usableLocked refuses a fold into a closed or degraded shadow.
func (s *shadow) usableLocked() error {
	if s.closed {
		return ErrClosed
	}
	return s.degradedErr
}

// applyLocked folds one committed record in. A record the shadow cannot
// absorb means the live tables and the log diverged: latch degraded
// instead of snapshotting a lie.
func (s *shadow) applyLocked(r Record) error {
	if !s.state.Peek(r) {
		err := fmt.Errorf("durable: record %v %q on node %d does not fit the shadow state",
			r.Kind, r.ID, r.Node)
		s.degradeLocked(err)
		return err
	}
	s.state.Apply(r)
	return nil
}

// advanceLocked moves the applied position to (lsn, term) after n records
// totalling size encoded bytes, reporting whether the cadence now calls
// for a snapshot.
func (s *shadow) advanceLocked(lsn, term uint64, n, size int64) bool {
	s.appliedLSN, s.appliedTerm = lsn, term
	s.recSinceSnap += n
	s.bytesSinceSnap += size
	return s.recSinceSnap >= s.cfg.SnapshotEveryRecords || s.bytesSinceSnap >= s.cfg.SnapshotEveryBytes
}

// maybeSnapshot starts one background snapshot if none is running.
func (s *shadow) maybeSnapshot() {
	if !s.snapshotting.CompareAndSwap(false, true) {
		return
	}
	s.snapWG.Add(1)
	go func() {
		defer s.snapWG.Done()
		defer s.snapshotting.Store(false)
		s.mu.Lock()
		clone := s.state.Clone()
		lsn, term := s.appliedLSN, s.appliedTerm
		s.recSinceSnap = 0
		s.bytesSinceSnap = 0
		s.mu.Unlock()
		s.writeAndPublish(lsn, term, clone)
	}()
}

// writeAndPublish persists one snapshot, prunes old ones, and compacts the
// log behind it. Failures count but do not degrade: the log alone still
// carries the state, and the next cadence trigger retries.
func (s *shadow) writeAndPublish(lsn, term uint64, clone *State) {
	if err := writeSnapshot(s.cfg.FS, s.cfg.Dir, lsn, term, s.cfg.Spec, clone); err != nil {
		s.snapErrors.Add(1)
		return
	}
	s.snapshots.Add(1)
	s.mu.Lock()
	if lsn > s.lastSnapLSN {
		s.lastSnapLSN = lsn
	}
	s.mu.Unlock()
	if err := pruneSnapshots(s.cfg.FS, s.cfg.Dir); err != nil {
		s.snapErrors.Add(1)
	}
	if s.compact != nil {
		if err := s.compact(lsn); err != nil {
			s.snapErrors.Add(1)
		}
	}
}

// degrade latches the shadow into fail-open mode.
func (s *shadow) degrade(err error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.degradeLocked(err)
	return s.degradedErr
}

func (s *shadow) degradeLocked(err error) {
	if s.degradedErr == nil {
		s.degradedErr = err
	}
}

// DegradedErr returns the latched failure, or nil while healthy.
func (s *shadow) DegradedErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degradedErr
}

// Stats snapshots the shadow's health; the WAL field is the embedding
// store's to fill.
func (s *shadow) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		LastSnapshotLSN: s.lastSnapLSN,
		PendingRecords:  s.recSinceSnap,
		Degraded:        s.degradedErr != nil,
	}
	s.mu.Unlock()
	st.Snapshots = s.snapshots.Load()
	st.SnapshotErrors = s.snapErrors.Load()
	return st
}

// Close waits out any background snapshot and writes a final one at the
// applied position, so a clean restart replays (almost) nothing. Safe to
// call more than once.
func (s *shadow) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.snapWG.Wait()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.snapWG.Wait()

	s.mu.Lock()
	lsn, term := s.appliedLSN, s.appliedTerm
	needSnap := s.degradedErr == nil && lsn > s.lastSnapLSN
	var clone *State
	if needSnap {
		clone = s.state.Clone()
	}
	s.mu.Unlock()
	if needSnap {
		s.writeAndPublish(lsn, term, clone)
	}
	return nil
}
