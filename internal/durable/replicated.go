package durable

import "hrtsched/internal/plan"

// ReplStore is the durability engine under a *replicated* cluster. The
// replication layer owns the WAL (appends, fsyncs, truncation, shipping),
// so this store is the shadow alone:
//
//   - Boot restores from the latest snapshot ONLY. A snapshot is cut at
//     an applied LSN, applied <= committed, so everything it covers is
//     committed by construction; the WAL suffix beyond it is NOT replayed
//     blindly — it re-applies through the replication commit index, which
//     is the only authority on what survived an election.
//   - ApplyCommitted folds records in as the commit index advances, on
//     leader and follower alike, keeping every replica's durable view the
//     fold of the same log prefix.
//   - Log compaction never runs: a follower can always be caught up from
//     LSN 1 without an install-snapshot RPC. Snapshots still bound local
//     replay and are pruned to the newest two as usual.
type ReplStore struct {
	*shadow
}

// OpenReplicated restores the shadow from the newest valid snapshot;
// Recovery().SnapshotLSN and SnapshotTerm seed the replication layer's
// applied position and log floor.
func OpenReplicated(cfg Config) (*ReplStore, error) {
	sh, err := openShadow(cfg)
	if err != nil {
		return nil, err
	}
	return &ReplStore{sh}, nil
}

// Peek reports whether the shadow can absorb r (same verdict the
// replay path would give).
func (s *ReplStore) Peek(r Record) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state.Peek(r)
}

// Resolve reconstructs the task set a record places.
func (s *ReplStore) Resolve(r Record) plan.TaskSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state.Resolve(r)
}

// Orphans lists placements stranded mid-move (present on two nodes at
// once); a fresh leader reconciles them by proposing OriginRelease
// removes before taking client mutations.
func (s *ReplStore) Orphans() []Orphan {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state.Orphans()
}

// SkipCommitted records that the apply loop deliberately skipped the
// committed record at lsn (undecodable or no longer fitting the shadow),
// keeping the applied cursor moving.
func (s *ReplStore) SkipCommitted(lsn, term uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if lsn > s.appliedLSN {
		s.appliedLSN, s.appliedTerm = lsn, term
	}
}

// ApplyCommitted folds one committed record into the shadow, after the
// caller has applied it to the live engines. size is the encoded record
// length (drives the byte-based snapshot cadence). Records at or below
// the restore point are ignored, so replay overlap is harmless.
func (s *ReplStore) ApplyCommitted(lsn, term uint64, size int, r Record) error {
	s.mu.Lock()
	if err := s.usableLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	if lsn <= s.appliedLSN {
		s.mu.Unlock()
		return nil
	}
	if err := s.applyLocked(r); err != nil {
		s.mu.Unlock()
		return err
	}
	shouldSnap := s.advanceLocked(lsn, term, 1, int64(size))
	s.mu.Unlock()
	if shouldSnap {
		s.maybeSnapshot()
	}
	return nil
}
