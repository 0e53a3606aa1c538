package serve

import (
	"fmt"

	"hrtsched/internal/durable"
	"hrtsched/internal/plan"
	"hrtsched/internal/wal"
)

// DurabilityConfig opts a Cluster into durable state: every committed
// mutation is group-committed to a write-ahead log under Dir before the
// client hears the answer, snapshots bound replay time, and NewCluster
// recovers the previous session's placements from disk.
type DurabilityConfig struct {
	// Dir holds the WAL segments and snapshots.
	Dir string
	// FS overrides the filesystem (fault-injection tests); nil = real.
	FS wal.FS
}

// DurabilityStatus is the durability block of ClusterStatus — absent
// entirely when durability is off, so the disabled status stays
// byte-identical to previous releases.
type DurabilityStatus struct {
	WALSegments     int                    `json:"wal_segments"`
	WALBytes        int64                  `json:"wal_bytes"`
	LastLSN         uint64                 `json:"last_lsn"`
	SyncedLSN       uint64                 `json:"synced_lsn"`
	Records         int64                  `json:"wal_records_total"`
	Fsyncs          int64                  `json:"wal_fsyncs_total"`
	Batches         int64                  `json:"wal_batches_total"`
	AppendErrors    int64                  `json:"wal_append_errors_total"`
	LastSnapshotLSN uint64                 `json:"last_snapshot_lsn"`
	Snapshots       int64                  `json:"snapshots_total"`
	SnapshotErrors  int64                  `json:"snapshot_errors_total"`
	PendingRecords  int64                  `json:"records_since_snapshot"`
	Degraded        bool                   `json:"degraded"`
	LastRecovery    durable.RecoveryResult `json:"last_recovery"`
}

// storeConfig is the durable store configuration both durable logs open.
func (c *Cluster) storeConfig() durable.Config {
	d := c.cfg.Durability
	return durable.Config{Dir: d.Dir, NumNodes: c.cfg.Nodes, Spec: c.cfg.Spec, FS: d.FS}
}

// openDurability opens the local WAL and rebuilds the previous session:
// engines restore the snapshot prefix, the WAL suffix replays through
// them in commit order, move-orphans are reconciled, and the placement
// map, counters, and gauges are installed. Runs before the node workers
// start, so no locking is needed.
func (c *Cluster) openDurability() error {
	store, err := durable.Open(c.storeConfig())
	if err != nil {
		return err
	}
	err = c.install(store.RecoveredState(), func() error {
		if err := store.Replay(func(r durable.Record, tasks plan.TaskSet) bool {
			r.Tasks = tasks
			return applyRecord(c.nodes[r.Node].eng, r)
		}); err != nil {
			return fmt.Errorf("serve: wal replay: %w", err)
		}
		// Reconcile the one intermediate state a crash can legally expose:
		// a move whose destination place was logged but whose home release
		// was not leaves a stale home copy — release it from the engine and
		// log the release so log, shadow, and engines agree again.
		if _, err := store.ReleaseOrphans(func(o durable.Orphan) {
			c.nodes[o.Node].eng.RemoveGang(o.Tasks)
		}); err != nil {
			return fmt.Errorf("serve: orphan reconciliation: %w", err)
		}
		if plan.VerifyEnabled {
			// Recovery audit: each recovered engine's retained verdict must
			// be a from-scratch analysis's verdict of its recovered set.
			for _, n := range c.nodes {
				if n.eng.Verdict() != plan.Analyze(c.cfg.Spec, n.eng.Tasks()) {
					return fmt.Errorf("serve: recovery audit: node %d verdict diverges from fresh analysis", n.id)
				}
			}
		}
		return nil
	})
	if err != nil {
		store.Close() //nolint:errcheck // already failing; surface the recovery error
		return err
	}
	c.log = walLog{c, store}
	c.recovery = store.Recovery()
	return nil
}

// durabilityStatus builds the status block, nil when durability is off.
func (c *Cluster) durabilityStatus() *DurabilityStatus {
	st, ok := c.log.stats()
	if !ok {
		return nil
	}
	return &DurabilityStatus{
		WALSegments:     st.WAL.Segments,
		WALBytes:        st.WAL.Bytes,
		LastLSN:         st.WAL.LastLSN,
		SyncedLSN:       st.WAL.SyncedLSN,
		Records:         st.WAL.Appends,
		Fsyncs:          st.WAL.Fsyncs,
		Batches:         st.WAL.Batches,
		AppendErrors:    st.WAL.AppendErrors,
		LastSnapshotLSN: st.LastSnapshotLSN,
		Snapshots:       st.Snapshots,
		SnapshotErrors:  st.SnapshotErrors,
		PendingRecords:  st.PendingRecords,
		Degraded:        st.Degraded,
		LastRecovery:    c.recovery,
	}
}

// Recovery returns what recovery found at boot; the zero value when
// durability is off.
func (c *Cluster) Recovery() durable.RecoveryResult { return c.recovery }

// registerDurabilityMetrics exposes hrtd_wal_* and hrtd_recovery_* on r,
// for either durable log.
func (c *Cluster) registerDurabilityMetrics(r *Registry) {
	stats := func(f func(durable.Stats) float64) func() float64 {
		return func() float64 {
			st, _ := c.log.stats()
			return f(st)
		}
	}
	r.Gauge("hrtd_wal_segments", "Write-ahead log segment files on disk.",
		stats(func(s durable.Stats) float64 { return float64(s.WAL.Segments) }))
	r.Gauge("hrtd_wal_bytes", "Write-ahead log bytes on disk.",
		stats(func(s durable.Stats) float64 { return float64(s.WAL.Bytes) }))
	r.Gauge("hrtd_wal_synced_lsn", "Last LSN known durable.",
		stats(func(s durable.Stats) float64 { return float64(s.WAL.SyncedLSN) }))
	r.Counter("hrtd_wal_records_total", "Mutation records appended to the WAL.",
		stats(func(s durable.Stats) float64 { return float64(s.WAL.Appends) }))
	r.Counter("hrtd_wal_fsyncs_total", "WAL fsyncs (group commits share one).",
		stats(func(s durable.Stats) float64 { return float64(s.WAL.Fsyncs) }))
	r.Counter("hrtd_wal_batches_total", "WAL group-commit batches.",
		stats(func(s durable.Stats) float64 { return float64(s.WAL.Batches) }))
	r.Counter("hrtd_wal_append_errors_total", "WAL append failures (store degraded).",
		stats(func(s durable.Stats) float64 { return float64(s.WAL.AppendErrors) }))
	r.Counter("hrtd_wal_snapshots_total", "Snapshots written.",
		stats(func(s durable.Stats) float64 { return float64(s.Snapshots) }))
	r.Counter("hrtd_wal_snapshot_errors_total", "Snapshot write/prune/compact failures.",
		stats(func(s durable.Stats) float64 { return float64(s.SnapshotErrors) }))
	r.Gauge("hrtd_wal_last_snapshot_lsn", "LSN covered by the newest snapshot.",
		stats(func(s durable.Stats) float64 { return float64(s.LastSnapshotLSN) }))
	r.Gauge("hrtd_wal_degraded", "1 when the store latched fail-open after a write error.",
		stats(func(s durable.Stats) float64 {
			if s.Degraded {
				return 1
			}
			return 0
		}))
	r.Histogram("hrtd_wal_fsync_latency_us", "WAL fsync latency in microseconds.",
		func() []HistSample {
			st, _ := c.log.stats()
			return []HistSample{{H: st.WAL.FsyncLatencyUs}}
		})
	rec := c.recovery
	r.Counter("hrtd_recovery_replayed_total", "WAL records replayed at boot.",
		func() float64 { return float64(rec.Replayed) })
	r.Counter("hrtd_recovery_rejected_total", "WAL records skipped at boot (stale or refused).",
		func() float64 { return float64(rec.Rejected) })
	r.Counter("hrtd_recovery_truncated_bytes", "Torn-tail bytes amputated at boot.",
		func() float64 { return float64(rec.TruncatedBytes) })
	r.Counter("hrtd_recovery_dropped_segments", "Unreachable WAL segments dropped at boot.",
		func() float64 { return float64(rec.DroppedSegments) })
	r.Counter("hrtd_recovery_orphans_released", "Mid-move stale copies reconciled at boot.",
		func() float64 { return float64(rec.OrphansReleased) })
	r.Counter("hrtd_recovery_bad_snapshots", "Snapshot files skipped at boot (CRC/decode).",
		func() float64 { return float64(rec.BadSnapshots) })
	r.Gauge("hrtd_recovery_snapshot_lsn", "LSN of the snapshot recovery started from.",
		func() float64 { return float64(rec.SnapshotLSN) })
}
