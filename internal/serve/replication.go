package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hrtsched/internal/durable"
	"hrtsched/internal/repl"
)

// ReplicationConfig opts a durable Cluster into leader-based replication:
// every mutation record is shipped to the peer replicas through the
// repl.Node consensus layer and acknowledged only once a majority has
// fsynced it. Requires ClusterConfig.Durability (the WAL directory and
// filesystem come from there; the replication layer owns the WAL).
type ReplicationConfig struct {
	// ID is this replica's index in [0, Replicas).
	ID int
	// Replicas is the total replica count (including this one).
	Replicas int
	// Peers maps replica IDs to their base URLs ("http://host:port") —
	// used for mutation redirects and, when Transport is nil, to build
	// the default HTTP transport.
	Peers map[int]string
	// Transport overrides the RPC transport (in-process fault-injection
	// tests); nil builds an HTTP transport over Peers.
	Transport repl.Transport
	// HeartbeatInterval / ElectionTimeout tune the failure detector;
	// zero values take the repl package defaults.
	HeartbeatInterval time.Duration
	ElectionTimeout   time.Duration
	// Seed makes election jitter deterministic in tests.
	Seed int64
}

// NotLeaderError reports a mutation sent to a replica that is not the
// leader. LeaderURL is empty when no leader is currently known.
type NotLeaderError struct {
	LeaderID  int
	LeaderURL string
}

func (e *NotLeaderError) Error() string {
	if e.LeaderURL != "" {
		return fmt.Sprintf("serve: not the leader; leader is replica %d at %s", e.LeaderID, e.LeaderURL)
	}
	return fmt.Sprintf("serve: not the leader; leader is replica %d", e.LeaderID)
}

// Errors the replicated mutation path can return.
var (
	// ErrNoLeader means no replica currently holds a lease; the client
	// should retry after the election settles (503 + Retry-After).
	ErrNoLeader = errors.New("serve: no replication leader elected")
	// ErrLeaderNotReady means this replica just won an election and is
	// still applying its log up to the term barrier; retry shortly.
	ErrLeaderNotReady = errors.New("serve: leader still applying its log")
	// ErrIndeterminate wraps a mutation whose commit outcome is unknown
	// (leadership was lost mid-commit). The record MAY have committed;
	// the client must re-issue the same id and treat a duplicate-id
	// conflict as success.
	ErrIndeterminate = errors.New("serve: leadership lost mid-commit; outcome indeterminate")
)

// replLog commits records through the consensus layer: a batch is
// proposed, acknowledged once a majority has fsynced it, and applied on
// every replica by applyCommitted in log order. store is the
// snapshot-only shadow.
type replLog struct {
	c     *Cluster
	store *durable.ReplStore
}

func (*replLog) reapplies() bool { return true }

// commit proposes one batch of records and blocks until they are
// majority-durable AND applied locally, so the reply (and any follow-up
// mutation on the same node) observes its own write.
func (l *replLog) commit(recs []durable.Record) error {
	payloads := make([][]byte, len(recs))
	for i, r := range recs {
		p, err := r.Encode()
		if err != nil {
			return err
		}
		payloads[i] = p
	}
	t, err := l.c.repl.Propose(payloads)
	if err == nil {
		err = t.Wait()
	}
	if err == nil {
		err = l.c.repl.WaitApplied(t.LastLSN)
	}
	return l.c.mapReplErr(err)
}

// stats pairs the shadow's snapshot health with the consensus layer's WAL.
func (l *replLog) stats() (durable.Stats, bool) {
	st := l.store.Stats()
	st.WAL = l.c.repl.WALStats()
	return st, true
}

// close stops consensus first (no more applies), then cuts the final
// snapshot at the applied position.
func (l *replLog) close() {
	l.c.repl.Close() //nolint:errcheck
	l.store.Close()  //nolint:errcheck
}

// openReplication boots the replicated store: restore engines, placement
// map and counters from the newest snapshot, then start the consensus
// node, whose apply loop replays the committed log suffix through the same
// engines. Runs before the node workers start.
func (c *Cluster) openReplication() error {
	rc, d := c.cfg.Replication, c.cfg.Durability
	rs, err := durable.OpenReplicated(c.storeConfig())
	if err != nil {
		return err
	}
	c.install(rs.RecoveredState(), nil) //nolint:errcheck // nothing to catch up: consensus replays the suffix
	c.recovery = rs.Recovery()
	l := &replLog{c: c, store: rs}
	tr := rc.Transport
	if tr == nil {
		tr = repl.NewHTTPTransport(rc.Peers)
	}
	node, rep, err := repl.Open(repl.Config{
		ID:                rc.ID,
		Replicas:          rc.Replicas,
		Dir:               d.Dir,
		FS:                d.FS,
		Transport:         tr,
		Apply:             l.applyCommitted,
		OnRole:            l.onRole,
		HeartbeatInterval: rc.HeartbeatInterval,
		ElectionTimeout:   rc.ElectionTimeout,
		Seed:              rc.Seed,
		FloorTerm:         c.recovery.SnapshotTerm,
		AppliedLSN:        c.recovery.SnapshotLSN,
	})
	if err != nil {
		rs.Close() //nolint:errcheck // already failing; surface the open error
		return fmt.Errorf("serve: replication open: %w", err)
	}
	c.recovery.TruncatedBytes = rep.TruncatedBytes
	c.recovery.DroppedSegments = rep.DroppedSegments
	c.recovery.LastLSN = rep.LastLSN
	c.repl, c.log = node, l
	close(c.replBoot)
	return nil
}

// applyCommitted is the consensus apply callback: it applies one
// committed record to this replica's engine, then folds it into the
// shadow, the placement map and the counters, in log order on leader and
// follower alike. It is the sole engine mutator in replicated mode (the
// worker reverts its evaluation), so every replica's live state is the
// fold of the same committed prefix.
func (l *replLog) applyCommitted(lsn, term uint64, payload []byte) {
	c := l.c
	rec, err := durable.DecodeRecord(payload)
	ok := err == nil && rec.Node >= 0 && rec.Node < len(c.nodes) && l.store.Peek(rec)
	if ok {
		rec.Tasks = l.store.Resolve(rec)
		n := c.nodes[rec.Node]
		n.engMu.Lock()
		if ok = applyRecord(n.eng, rec); ok {
			n.syncGauges()
		}
		n.engMu.Unlock()
	}
	if !ok {
		// Undecodable, no longer fitting the shadow, or refused by the
		// engine. Engines are deterministic folds of the same record
		// sequence, so every replica skips identically, never force-applies.
		// A pending map entry for a skipped place (a deposed leader's
		// in-flight proposal that committed under the new term but no
		// longer fits) must go too, or this replica's map would hold an id
		// no engine backs.
		c.replSkipped.Add(1)
		l.store.SkipCommitted(lsn, term)
		c.dropSkippedPending(rec)
		return
	}
	l.store.ApplyCommitted(lsn, term, len(payload), rec) //nolint:errcheck // latches degraded internally
	c.fold(rec)
}

// dropSkippedPending clears the in-flight map entry of a skipped place
// record. Without it a deposed leader whose proposal committed under the
// new term but was refused at apply would keep a map id no engine backs.
func (c *Cluster) dropSkippedPending(rec durable.Record) {
	if (rec.Kind != durable.KindPlace && rec.Kind != durable.KindPlaceDAG) || rec.ID == "" {
		return
	}
	c.mu.Lock()
	if old, ok := c.placements[rec.ID]; ok && old.pending && !old.committed {
		delete(c.placements, rec.ID)
	}
	c.mu.Unlock()
}

// mapReplErr translates consensus errors into the session's vocabulary.
func (c *Cluster) mapReplErr(err error) error {
	var nl *repl.NotLeaderError
	switch {
	case err == nil:
		return nil
	case errors.As(err, &nl):
		// Never appended here: determinately not committed.
		e := &NotLeaderError{LeaderID: nl.Leader}
		if nl.Leader >= 0 {
			e.LeaderURL = c.cfg.Replication.Peers[nl.Leader]
		}
		return e
	case errors.Is(err, repl.ErrLostLeadership):
		// Appended but the commit outcome is unknown.
		return fmt.Errorf("%w: %v", ErrIndeterminate, err)
	case errors.Is(err, repl.ErrClosed):
		return ErrClusterClosed
	default:
		return err
	}
}

// leaderCheck gates mutations: nil on a ready leader, a redirectable
// NotLeaderError on a follower that knows the leader, ErrNoLeader during
// an election, ErrLeaderNotReady while a fresh leader catches up its log
// and reconciles orphans.
func (c *Cluster) leaderCheck() error {
	if c.repl == nil {
		return nil
	}
	st := c.repl.Status()
	if st.Role == repl.RoleLeader {
		if c.repl.LeaderReady() && c.replReadyTerm.Load() == st.Term {
			return nil
		}
		return ErrLeaderNotReady
	}
	// Redirect only to a leader this follower has actually heard from
	// within the election timeout: a staler address is likely a dead
	// process mid-failover, and bouncing clients against it is worse
	// than an honest 503 + Retry-After while the election settles.
	fresh := st.MsSinceLeaderContact >= 0 &&
		time.Duration(st.MsSinceLeaderContact)*time.Millisecond <= c.repl.ElectionTimeout()
	if st.Leader >= 0 && st.Leader != c.cfg.Replication.ID && fresh {
		e := &NotLeaderError{LeaderID: st.Leader, LeaderURL: c.cfg.Replication.Peers[st.Leader]}
		return e
	}
	return ErrNoLeader
}

// onRole observes consensus role transitions. A won election starts the
// new-leader ramp: wait for the term barrier to apply (the whole
// committed log is then folded in), reconcile move-orphans, and only then
// open the gate for client mutations.
func (l *replLog) onRole(st repl.Status) {
	<-l.c.replBoot // repl field is assigned before any work here needs it
	if st.Role != repl.RoleLeader {
		return
	}
	go l.leaderRamp(st.Term)
}

// leaderRamp runs once per won term.
func (l *replLog) leaderRamp(term uint64) {
	c := l.c
	for {
		st := c.repl.Status()
		if st.Role != repl.RoleLeader || st.Term != term {
			return
		}
		if st.ReadyLSN > 0 {
			if c.repl.WaitApplied(st.ReadyLSN) != nil {
				return
			}
			break
		}
		time.Sleep(time.Millisecond)
	}
	// The log is fully applied: any move that lost its release record to
	// a leadership change is now visible as an orphan. Release the stale
	// copies through the normal propose path so every replica folds the
	// same reconciliation.
	for _, o := range l.store.Orphans() {
		st := c.repl.Status()
		if st.Role != repl.RoleLeader || st.Term != term {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_, err := c.submit(ctx, c.nodes[o.Node], &mutation{
			op: removeOp, set: o.Tasks, id: o.ID, origin: durable.OriginRelease,
		})
		cancel()
		if err == nil {
			c.orphanReleases.Add(1)
		}
		// On error: the next election retries; orphans are transient
		// over-reservation, never loss.
	}
	st := c.repl.Status()
	if st.Role == repl.RoleLeader && st.Term == term {
		c.replReadyTerm.Store(term)
	}
}

// TransferLeadership asks the consensus layer to hand leadership to the
// most caught-up follower (SIGTERM step-down). Returns the chosen peer,
// or an error when this replica is not the leader or has no peer.
func (c *Cluster) TransferLeadership(ctx context.Context) (int, error) {
	if c.repl == nil {
		return -1, errors.New("serve: replication is not enabled")
	}
	return c.repl.TransferLeadership(ctx)
}

// ReplicationStatus is the replication block of ClusterStatus; absent
// when replication is off.
type ReplicationStatus struct {
	ID        int    `json:"id"`
	Role      string `json:"role"`
	Term      uint64 `json:"term"`
	Leader    int    `json:"leader"` // -1 when unknown
	LeaderURL string `json:"leader_url,omitempty"`
	LastLSN   uint64 `json:"last_lsn"`
	// DurableLSN is the highest locally-fsynced LSN; CommitLSN the
	// highest majority-durable one; AppliedLSN what the engines reflect.
	DurableLSN uint64 `json:"durable_lsn"`
	CommitLSN  uint64 `json:"commit_lsn"`
	AppliedLSN uint64 `json:"applied_lsn"`
	Elections  int64  `json:"elections_total"`
	Redirects  int64  `json:"redirects_total"`
	// Skipped counts committed records this replica skipped (undecodable
	// or no longer fitting); nonzero means divergence was detected.
	Skipped int64 `json:"skipped_records_total"`
	// OrphanReleases counts stale move copies reconciled after elections.
	OrphanReleases int64 `json:"orphan_releases_total"`
	// Peers is the leader's view of follower progress.
	Peers []repl.PeerStatus `json:"peers,omitempty"`
	// MsSinceLeaderContact is a follower's staleness bound: milliseconds
	// since the last accepted leader append or heartbeat.
	MsSinceLeaderContact int64 `json:"ms_since_leader_contact"`
}

// replicationStatus builds the status block, nil when replication is off.
func (c *Cluster) replicationStatus() *ReplicationStatus {
	if c.repl == nil {
		return nil
	}
	st := c.repl.Status()
	rs := &ReplicationStatus{
		ID:                   st.ID,
		Role:                 st.RoleName,
		Term:                 st.Term,
		Leader:               st.Leader,
		LastLSN:              st.LastLSN,
		DurableLSN:           st.DurableLSN,
		CommitLSN:            st.CommitLSN,
		AppliedLSN:           st.AppliedLSN,
		Elections:            st.Elections,
		Redirects:            c.redirects.Load(),
		Skipped:              c.replSkipped.Load(),
		OrphanReleases:       c.orphanReleases.Load(),
		Peers:                st.Peers,
		MsSinceLeaderContact: st.MsSinceLeaderContact,
	}
	if st.Leader >= 0 {
		rs.LeaderURL = c.cfg.Replication.Peers[st.Leader]
	}
	return rs
}

// registerReplicationMetrics exposes hrtd_repl_* on r.
func (c *Cluster) registerReplicationMetrics(r *Registry) {
	status := func(f func(repl.Status) float64) func() float64 {
		return func() float64 { return f(c.repl.Status()) }
	}
	r.Gauge("hrtd_repl_term", "Current replication term.",
		status(func(s repl.Status) float64 { return float64(s.Term) }))
	r.Gauge("hrtd_repl_role", "Replication role: 0 follower, 1 candidate, 2 leader.",
		status(func(s repl.Status) float64 { return float64(s.Role) }))
	r.Gauge("hrtd_repl_is_leader", "1 when this replica is the ready leader.",
		func() float64 {
			if c.leaderCheck() == nil {
				return 1
			}
			return 0
		})
	r.Gauge("hrtd_repl_last_lsn", "Last LSN appended to the local log.",
		status(func(s repl.Status) float64 { return float64(s.LastLSN) }))
	r.Gauge("hrtd_repl_durable_lsn", "Last locally-fsynced LSN.",
		status(func(s repl.Status) float64 { return float64(s.DurableLSN) }))
	r.Gauge("hrtd_repl_commit_lsn", "Last majority-durable LSN.",
		status(func(s repl.Status) float64 { return float64(s.CommitLSN) }))
	r.Gauge("hrtd_repl_applied_lsn", "Last LSN folded into the engines.",
		status(func(s repl.Status) float64 { return float64(s.AppliedLSN) }))
	r.Counter("hrtd_repl_elections_total", "Elections this replica started.",
		status(func(s repl.Status) float64 { return float64(s.Elections) }))
	r.Counter("hrtd_repl_redirects_total", "Mutations redirected to the leader.",
		func() float64 { return float64(c.redirects.Load()) })
	r.Counter("hrtd_repl_skipped_records_total",
		"Committed records skipped (undecodable or divergent).",
		func() float64 { return float64(c.replSkipped.Load()) })
	r.Counter("hrtd_repl_orphan_releases_total",
		"Stale move copies reconciled after elections.",
		func() float64 { return float64(c.orphanReleases.Load()) })
	r.Counter("hrtd_repl_proposals_total", "Record batches proposed by this replica.",
		func() float64 { _, _, _, _, p, _ := c.repl.Counters(); return float64(p) })
	r.Counter("hrtd_repl_appends_sent_total", "AppendEntries RPCs sent.",
		func() float64 { _, a, _, _, _, _ := c.repl.Counters(); return float64(a) })
	r.Counter("hrtd_repl_appends_recv_total", "AppendEntries RPCs received.",
		func() float64 { _, _, a, _, _, _ := c.repl.Counters(); return float64(a) })
	r.Counter("hrtd_repl_protocol_errors_total", "Replication protocol violations detected.",
		func() float64 { _, _, _, _, _, e := c.repl.Counters(); return float64(e) })
	followerGauge := func(val func(repl.Status, repl.PeerStatus) float64) func() []Sample {
		return func() []Sample {
			s := c.repl.Status()
			out := make([]Sample, 0, len(s.Peers))
			for _, p := range s.Peers {
				out = append(out, Sample{
					Labels: []Label{{"peer", fmt.Sprint(p.ID)}},
					Value:  val(s, p),
				})
			}
			return out
		}
	}
	r.GaugeVec("hrtd_repl_follower_match_lsn",
		"Per-follower highest LSN confirmed durable (leader only).",
		followerGauge(func(s repl.Status, p repl.PeerStatus) float64 { return float64(p.MatchLSN) }))
	r.GaugeVec("hrtd_repl_follower_commit_lag",
		"Per-follower LSNs behind the commit index (leader only).",
		followerGauge(func(s repl.Status, p repl.PeerStatus) float64 {
			if s.CommitLSN > p.MatchLSN {
				return float64(s.CommitLSN - p.MatchLSN)
			}
			return 0
		}))
}
