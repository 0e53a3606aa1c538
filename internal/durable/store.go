package durable

import (
	"errors"
	"fmt"

	"hrtsched/internal/plan"
	"hrtsched/internal/wal"
)

// ErrClosed is returned by LogBatch and ApplyCommitted after Close.
var ErrClosed = errors.New("durable: store closed")

// Config parameterizes a Store or a ReplStore. Zero fields take defaults.
type Config struct {
	// Dir holds WAL segments and snapshots; created if missing.
	Dir string
	// NumNodes is the cluster's node count; a snapshot recorded with more
	// nodes than this refuses to open (shrinking a cluster under live
	// placements needs an explicit drain, not a silent amputation).
	NumNodes int
	// Spec is the per-node admission spec; recovery flags (but tolerates)
	// a snapshot taken under a different one.
	Spec plan.Spec
	// FS is the filesystem to write through; default the real one.
	FS wal.FS
	// SegmentBytes is the WAL roll threshold; default wal's. A ReplStore
	// ignores it: the replication layer owns that log.
	SegmentBytes int64
	// SnapshotEveryRecords triggers a snapshot after this many logged
	// records; default 4096. A snapshot is also due once
	// snapshotEveryBytes have been logged since the last one.
	SnapshotEveryRecords int64
}

// snapshotEveryBytes triggers a snapshot after this many logged bytes.
const snapshotEveryBytes = 1 << 20

func (c *Config) fillDefaults() {
	if c.FS == nil {
		c.FS = wal.OSFS{}
	}
	if c.SnapshotEveryRecords == 0 {
		c.SnapshotEveryRecords = 4096
	}
}

// RecoveryResult summarizes what one recovery did, for the boot log line
// and the status endpoint.
type RecoveryResult struct {
	// SnapshotLSN is the LSN of the snapshot recovery started from (0
	// when none was usable).
	SnapshotLSN uint64 `json:"snapshot_lsn"`
	// SnapshotTerm is the replication term of the snapshot's last entry
	// (0 outside replicated mode); it seeds the replicated log's floor.
	SnapshotTerm uint64 `json:"snapshot_term,omitempty"`
	// BadSnapshots counts snapshot files skipped for CRC or decode
	// failures, or because the cluster could not install them.
	BadSnapshots int `json:"bad_snapshots"`
	// Replayed counts WAL records applied on top of the snapshot.
	Replayed int64 `json:"replayed"`
	// Rejected counts WAL records that no longer fit — undecodable,
	// aimed at a missing node, or refused by the engine under a changed
	// spec. They are skipped consistently, never force-applied.
	Rejected int64 `json:"rejected"`
	// TruncatedBytes is the torn tail the WAL amputated.
	TruncatedBytes int64 `json:"truncated_bytes"`
	// DroppedSegments counts WAL segments discarded as unreachable.
	DroppedSegments int `json:"dropped_segments"`
	// OrphansReleased counts stale move copies reconciled after replay.
	OrphansReleased int `json:"orphans_released"`
	// LastLSN is the log's last valid LSN after recovery.
	LastLSN uint64 `json:"last_lsn"`
	// SpecChanged notes that the snapshot was taken under a different
	// admission spec than the current configuration.
	SpecChanged bool `json:"spec_changed,omitempty"`
}

// Stats snapshots the store's health for metrics and status.
type Stats struct {
	WAL             wal.Stats
	LastSnapshotLSN uint64
	Snapshots       int64
	SnapshotErrors  int64
	PendingRecords  int64 // records logged since the last snapshot cut
	Degraded        bool
}

// Store is the durability engine under a cluster with a local WAL: it owns
// the log and embeds the shadow. All mutation logging funnels through
// LogBatch, which assigns WAL order and shadow order under one mutex — so
// the shadow is always the fold of the log prefix, and snapshotting it
// never needs to stop the world.
type Store struct {
	*shadow
	log *wal.Log
}

// Open loads the latest valid snapshot and scans the WAL. The caller must
// then restore its engines from RecoveredState, run Replay, and reconcile
// ReleaseOrphans — in that order — before the first LogBatch.
func Open(cfg Config) (*Store, error) {
	sh, err := openShadow(cfg)
	if err != nil {
		return nil, err
	}
	cfg, snapLSN := sh.cfg, sh.recovery.SnapshotLSN
	walOpts := wal.Options{Dir: cfg.Dir, FS: cfg.FS, SegmentBytes: cfg.SegmentBytes}
	log, rep, err := wal.Open(walOpts)
	if err != nil {
		return nil, err
	}
	if rep.LastLSN < snapLSN {
		// The snapshot outran the surviving log (its covered tail was
		// torn off, or segments were lost). Every surviving record is
		// already inside the snapshot, so the stale segments are wiped
		// and the log restarts just past it — LSNs the snapshot covers
		// must never be reassigned to new records.
		if cerr := log.Close(); cerr != nil {
			return nil, cerr
		}
		n, werr := wal.RemoveAll(cfg.FS, cfg.Dir)
		if werr != nil {
			return nil, fmt.Errorf("durable: wipe stale log: %w", werr)
		}
		rep.DroppedSegments += n
		walOpts.BaseLSN = snapLSN + 1
		log, _, err = wal.Open(walOpts)
		if err != nil {
			return nil, err
		}
		rep.LastLSN = snapLSN
	}
	sh.recovery.TruncatedBytes = rep.TruncatedBytes
	sh.recovery.DroppedSegments = rep.DroppedSegments
	sh.recovery.LastLSN = rep.LastLSN
	sh.compact = func(lsn uint64) error {
		_, err := log.CompactBefore(lsn + 1)
		return err
	}
	return &Store{shadow: sh, log: log}, nil
}

// Replay streams the WAL suffix past the snapshot through apply in
// commit order. apply reports whether the engine accepted the record;
// refusals (and records that no longer fit the shadow) are counted as
// rejected and consistently skipped on both sides. A record whose kind
// byte this build does not know aborts replay with *UnknownKindError:
// it means the log came from a newer writer, and skipping it would
// silently diverge from the state that writer rebuilds. Must run before
// the first LogBatch.
func (s *Store) Replay(apply func(r Record, tasks plan.TaskSet) bool) error {
	err := s.log.Replay(s.recovery.SnapshotLSN+1, func(lsn uint64, payload []byte) error {
		rec, derr := DecodeRecord(payload)
		if derr != nil {
			var unknown *UnknownKindError
			if errors.As(derr, &unknown) {
				return fmt.Errorf("durable: replay lsn %d: %w", lsn, derr)
			}
			s.recovery.Rejected++
			return nil
		}
		if !s.state.Peek(rec) || !apply(rec, s.state.Resolve(rec)) {
			s.recovery.Rejected++
			return nil
		}
		s.state.Apply(rec)
		s.recovery.Replayed++
		return nil
	})
	if err != nil {
		return err
	}
	if s.recovery.LastLSN > s.appliedLSN {
		s.appliedLSN = s.recovery.LastLSN
	}
	return nil
}

// ReleaseOrphans reconciles entries stranded mid-move by the crash: for
// each, release (drop it from the engine) runs first, then a
// OriginRelease remove is logged so the log and shadow agree with the
// engines again. Returns how many were released.
func (s *Store) ReleaseOrphans(release func(o Orphan)) (int, error) {
	orphans := s.state.Orphans()
	if len(orphans) == 0 {
		return 0, nil
	}
	recs := make([]Record, len(orphans))
	for i, o := range orphans {
		release(o)
		recs[i] = Record{Kind: KindRemove, Origin: OriginRelease, Node: o.Node, ID: o.ID}
	}
	s.recovery.OrphansReleased = len(orphans)
	return len(orphans), s.LogBatch(recs)
}

// LogBatch makes a batch of committed mutations durable: records are
// framed into the WAL (sharing fsyncs with concurrent callers via group
// commit) and folded into the shadow, and the call returns only once
// every record is on disk. The caller replies to its client after this
// returns — that ordering is the whole durability guarantee.
func (s *Store) LogBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	payloads := make([][]byte, len(recs))
	var total int64
	for i, r := range recs {
		p, err := r.Encode()
		if err != nil {
			return s.degrade(err)
		}
		payloads[i] = p
		total += int64(len(p))
	}

	s.mu.Lock()
	if err := s.usableLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	t, err := s.log.AppendBatch(payloads)
	if err != nil {
		s.degradeLocked(err)
		s.mu.Unlock()
		return err
	}
	for _, r := range recs {
		if err := s.applyLocked(r); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	shouldSnap := s.advanceLocked(t.LastLSN, 0, int64(len(recs)), total)
	s.mu.Unlock()

	if err := t.Wait(); err != nil {
		return s.degrade(err)
	}
	if shouldSnap {
		s.maybeSnapshot()
	}
	return nil
}

// Stats snapshots the store, WAL included.
func (s *Store) Stats() Stats {
	st := s.shadow.Stats()
	st.WAL = s.log.Stats()
	return st
}

// Close waits out any background snapshot, writes a final snapshot (so a
// clean restart replays nothing), and closes the WAL. Safe to call more
// than once.
func (s *Store) Close() error {
	s.shadow.Close() //nolint:errcheck // never fails; the log's error is the one to report
	return s.log.Close()
}
