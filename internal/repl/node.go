package repl

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hrtsched/internal/wal"
)

// Transport carries the three replication RPCs to a peer replica. The
// production implementation speaks HTTP (see HTTPTransport); tests use an
// in-process transport gated by a fault.NetPolicy.
type Transport interface {
	Append(ctx context.Context, peer int, req AppendRequest) (AppendResponse, error)
	Vote(ctx context.Context, peer int, req VoteRequest) (VoteResponse, error)
	TimeoutNow(ctx context.Context, peer int) error
}

// Config wires up one replica.
type Config struct {
	// ID is this replica's index in [0, Replicas).
	ID int
	// Replicas is the cluster size; majority = Replicas/2 + 1.
	Replicas int
	// Dir holds the WAL segments and term state.
	Dir string
	// FS is the filesystem to write through; default the real one.
	FS wal.FS
	// BaseLSN seeds the WAL when the directory holds no records (used
	// after a snapshot-outran-log wipe; see durable.Store).
	BaseLSN uint64
	// Transport reaches the other replicas.
	Transport Transport
	// Apply delivers committed application payloads in strict LSN order
	// from a single goroutine. No-op barrier entries are not delivered.
	Apply func(lsn, term uint64, payload []byte)
	// OnRole, if set, observes role/term transitions (called from a
	// dedicated goroutine, in order; slow callbacks may coalesce).
	OnRole func(Status)
	// HeartbeatInterval paces leader heartbeats; default 50ms.
	HeartbeatInterval time.Duration
	// ElectionTimeout is the base liveness timeout: a follower that hears
	// nothing for [T, 2T) starts an election, and a leader that loses
	// contact with a majority for T steps down. Default 10x heartbeat.
	ElectionTimeout time.Duration
	// Seed makes election jitter deterministic per replica.
	Seed int64
	// FloorTerm is the term of the last snapshot-covered entry, for
	// logs whose prefix was wiped (floor > 0).
	FloorTerm uint64
	// AppliedLSN is the caller's snapshot position: apply restarts at
	// AppliedLSN+1, and everything at or below it is known committed.
	AppliedLSN uint64
	// Logf, if set, receives boot/role-transition log lines.
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() {
	if c.FS == nil {
		c.FS = wal.OSFS{}
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 50 * time.Millisecond
	}
	if c.ElectionTimeout <= 0 {
		c.ElectionTimeout = 10 * c.HeartbeatInterval
	}
}

// maxAppendBatch caps the entries one AppendEntries RPC carries.
const maxAppendBatch = 256

// rpcTimeout bounds each transport call: half the election timeout.
func (n *Node) rpcTimeout() time.Duration { return n.cfg.ElectionTimeout / 2 }

// PeerStatus is the leader's view of one follower.
type PeerStatus struct {
	ID       int    `json:"id"`
	MatchLSN uint64 `json:"match_lsn"`
	NextLSN  uint64 `json:"next_lsn"`
}

// Status is a point-in-time snapshot of the replica's protocol state.
type Status struct {
	ID         int          `json:"id"`
	Role       Role         `json:"-"`
	RoleName   string       `json:"role"`
	Term       uint64       `json:"term"`
	Leader     int          `json:"leader"` // -1 when unknown
	LastLSN    uint64       `json:"last_lsn"`
	DurableLSN uint64       `json:"durable_lsn"`
	CommitLSN  uint64       `json:"commit_lsn"`
	AppliedLSN uint64       `json:"applied_lsn"`
	ReadyLSN   uint64       `json:"ready_lsn,omitempty"` // leader's barrier
	Elections  int64        `json:"elections"`
	Peers      []PeerStatus `json:"peers,omitempty"` // leader only
	// MsSinceLeaderContact is -1 before any leader has been heard.
	MsSinceLeaderContact int64 `json:"ms_since_leader_contact"`
}

// Ticket tracks one proposal; Wait blocks until the batch is committed
// (majority-durable) or leadership is lost.
type Ticket struct {
	FirstLSN, LastLSN uint64
	done              chan error
}

// Wait blocks for the commit outcome. A nil return means every record in
// the batch is fsynced on a majority and will survive any single failure;
// ErrLostLeadership means the outcome is indeterminate.
func (t Ticket) Wait() error { return <-t.done }

// Node is one replica of the replicated log.
type Node struct {
	cfg   Config
	log   *wal.Log
	peers []int // replica ids other than ours

	mu        sync.Mutex
	applyCond *sync.Cond // commit/applied/truncation changes
	walCond   *sync.Cond // pendingAppends changes

	role      Role
	term      uint64
	votedFor  int
	leader    int // -1 unknown
	floor     uint64
	floorTerm uint64
	// terms and data cache the enveloped log suffix above floor, indexed
	// by lsn-floor-1; data bytes are exactly what sits in the WAL.
	terms   []uint64
	data    [][]byte
	lastLSN uint64
	// localDurable is the highest LSN known fsynced locally.
	localDurable   uint64
	pendingAppends int // proposals appended but not yet fsynced
	commitLSN      uint64
	appliedLSN     uint64
	readyLSN       uint64 // LSN of this leadership's no-op barrier
	match, next    []uint64
	lastAck        []time.Time
	votes          map[int]bool
	waiters        map[uint64][]chan error
	electionAt     time.Time
	lastContact    time.Time
	rng            *rand.Rand
	walErr         error
	persistErr     error
	closed         bool

	elections    atomic.Int64
	appendsSent  atomic.Int64
	appendsRecv  atomic.Int64
	votesRecv    atomic.Int64
	proposals    atomic.Int64
	protocolErrs atomic.Int64

	kick   []chan struct{}
	roleCh chan Status
	done   chan struct{}
	wg     sync.WaitGroup
}

// Open loads the replica's durable state (term file + WAL, including the
// term cache scanned from the enveloped records) and starts the protocol
// goroutines: every replica boots as a follower and waits out a full
// election timeout before campaigning.
func Open(cfg Config) (*Node, wal.OpenReport, error) {
	cfg.fillDefaults()
	if cfg.Replicas < 1 {
		return nil, wal.OpenReport{}, fmt.Errorf("repl: Replicas must be >= 1, got %d", cfg.Replicas)
	}
	if cfg.ID < 0 || cfg.ID >= cfg.Replicas {
		return nil, wal.OpenReport{}, fmt.Errorf("repl: ID %d outside [0,%d)", cfg.ID, cfg.Replicas)
	}
	if cfg.Transport == nil && cfg.Replicas > 1 {
		return nil, wal.OpenReport{}, fmt.Errorf("repl: Transport required for %d replicas", cfg.Replicas)
	}
	term, votedFor, err := readTermState(cfg.FS, cfg.Dir)
	if err != nil {
		if mkErr := cfg.FS.MkdirAll(cfg.Dir); mkErr != nil {
			return nil, wal.OpenReport{}, mkErr
		}
		term, votedFor, err = readTermState(cfg.FS, cfg.Dir)
		if err != nil {
			return nil, wal.OpenReport{}, err
		}
	}
	log, rep, err := wal.Open(wal.Options{
		Dir: cfg.Dir, FS: cfg.FS, BaseLSN: cfg.BaseLSN,
	})
	if err != nil {
		return nil, rep, err
	}

	n := &Node{
		cfg:      cfg,
		log:      log,
		role:     RoleFollower,
		term:     term,
		votedFor: votedFor,
		leader:   -1,
		votes:    map[int]bool{},
		waiters:  map[uint64][]chan error{},
		rng:      rand.New(rand.NewSource(cfg.Seed*2654435761 + int64(cfg.ID))),
		roleCh:   make(chan Status, 64),
		done:     make(chan struct{}),
	}
	n.applyCond = sync.NewCond(&n.mu)
	n.walCond = sync.NewCond(&n.mu)
	for id := 0; id < cfg.Replicas; id++ {
		if id != cfg.ID {
			n.peers = append(n.peers, id)
		}
	}
	n.match = make([]uint64, len(n.peers))
	n.next = make([]uint64, len(n.peers))
	n.lastAck = make([]time.Time, len(n.peers))
	n.kick = make([]chan struct{}, len(n.peers))
	for i := range n.kick {
		n.kick[i] = make(chan struct{}, 1)
	}

	if err := n.loadLog(); err != nil {
		log.Close()
		return nil, rep, err
	}
	if cfg.AppliedLSN > n.lastLSN {
		// The snapshot outran the surviving log: a leader commits (and
		// snapshots) once a majority is durable, which may run ahead of
		// its own fsync horizon, and the torn tail died with the crash.
		// Everything surviving is inside the snapshot, so wipe the stale
		// segments and restart the log just past it — the missing suffix
		// comes back from the current leader.
		if cerr := log.Close(); cerr != nil {
			return nil, rep, cerr
		}
		dropped, werr := wal.RemoveAll(cfg.FS, cfg.Dir)
		if werr != nil {
			return nil, rep, fmt.Errorf("repl: wipe stale log: %w", werr)
		}
		rep.DroppedSegments += dropped
		log, _, err = wal.Open(wal.Options{
			Dir: cfg.Dir, FS: cfg.FS, BaseLSN: cfg.AppliedLSN + 1,
		})
		if err != nil {
			return nil, rep, err
		}
		n.log = log
		n.terms, n.data = nil, nil
		n.floor = cfg.AppliedLSN
		n.lastLSN = cfg.AppliedLSN
		rep.LastLSN = cfg.AppliedLSN
	}
	n.floorTerm = cfg.FloorTerm
	n.appliedLSN = max(cfg.AppliedLSN, n.floor)
	// Everything the snapshot covers was committed; nothing above it is
	// known committed until a leader says so.
	n.commitLSN = n.appliedLSN
	n.localDurable = log.Stats().SyncedLSN
	n.resetElectionLocked()

	n.logf("repl: replica %d/%d open: term=%d votedFor=%d log=[%d..%d] applied=%d",
		cfg.ID, cfg.Replicas, n.term, n.votedFor, n.floor+1, n.lastLSN, n.appliedLSN)

	n.wg.Add(3 + len(n.peers))
	go n.runTicker()
	go n.runApply()
	go n.runNotify()
	for i := range n.peers {
		go n.runPeer(i)
	}
	return n, rep, nil
}

// loadLog scans the WAL into the term/data caches and derives the floor.
func (n *Node) loadLog() error {
	from := uint64(1)
	first := true
	for {
		recs, err := n.log.ReadFrom(from, 4096)
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			break
		}
		for _, r := range recs {
			if first {
				n.floor = r.LSN - 1
				first = false
			}
			term, _, _, err := decodeEntry(r.Payload)
			if err != nil {
				return fmt.Errorf("repl: LSN %d: %w", r.LSN, err)
			}
			n.terms = append(n.terms, term)
			n.data = append(n.data, r.Payload)
		}
		from = recs[len(recs)-1].LSN + 1
	}
	if first {
		n.floor = n.log.Stats().LastLSN // empty log: BaseLSN-1
	}
	n.lastLSN = n.floor + uint64(len(n.terms))
	return nil
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

func (n *Node) majority() int { return n.cfg.Replicas/2 + 1 }

// termAt reports the term of the entry at lsn (mu held).
func (n *Node) termAt(lsn uint64) uint64 {
	switch {
	case lsn == 0:
		return 0
	case lsn == n.floor:
		return n.floorTerm
	case lsn > n.floor && lsn <= n.lastLSN:
		return n.terms[lsn-n.floor-1]
	default:
		return 0
	}
}

func (n *Node) dataAt(lsn uint64) []byte { return n.data[lsn-n.floor-1] }

func (n *Node) lastTermLocked() uint64 { return n.termAt(n.lastLSN) }

func (n *Node) resetElectionLocked() {
	t := n.cfg.ElectionTimeout
	n.electionAt = time.Now().Add(t + time.Duration(n.rng.Int63n(int64(t))))
}

func (n *Node) kickIdx(i int) {
	select {
	case n.kick[i] <- struct{}{}:
	default:
	}
}

func (n *Node) kickAll() {
	for i := range n.kick {
		n.kickIdx(i)
	}
}

// statusLocked snapshots state (mu held).
func (n *Node) statusLocked() Status {
	st := Status{
		ID: n.cfg.ID, Role: n.role, RoleName: n.role.String(),
		Term: n.term, Leader: n.leader,
		LastLSN: n.lastLSN, DurableLSN: n.localDurable,
		CommitLSN: n.commitLSN, AppliedLSN: n.appliedLSN, ReadyLSN: n.readyLSN,
		Elections:            n.elections.Load(),
		MsSinceLeaderContact: -1,
	}
	if !n.lastContact.IsZero() {
		st.MsSinceLeaderContact = time.Since(n.lastContact).Milliseconds()
	}
	if n.role == RoleLeader {
		st.MsSinceLeaderContact = 0
		for i, p := range n.peers {
			st.Peers = append(st.Peers, PeerStatus{ID: p, MatchLSN: n.match[i], NextLSN: n.next[i]})
		}
	}
	return st
}

// Status reports the replica's protocol state.
func (n *Node) Status() Status {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.statusLocked()
}

// LeaderReady reports whether this replica is a leader whose no-op
// barrier has committed and applied — only then are its engine state and
// commit index known current, and only then should it take mutations.
func (n *Node) LeaderReady() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == RoleLeader && n.readyLSN > 0 && n.appliedLSN >= n.readyLSN
}

func (n *Node) notifyLocked() {
	st := n.statusLocked()
	select {
	case n.roleCh <- st:
	default: // coalesce under pressure; Status() always has the truth
	}
}

func (n *Node) failWaitersLocked(err error) {
	for lsn, chans := range n.waiters {
		for _, ch := range chans {
			ch <- err
		}
		delete(n.waiters, lsn)
	}
}

func (n *Node) completeWaitersLocked() {
	for lsn, chans := range n.waiters {
		if lsn <= n.commitLSN {
			for _, ch := range chans {
				ch <- nil
			}
			delete(n.waiters, lsn)
		}
	}
}

// stepDownLocked moves to follower, bumping (and persisting) the term if
// newTerm is higher. leader is the new term's leader if known, else -1.
func (n *Node) stepDownLocked(newTerm uint64, leader int) {
	changed := n.role != RoleFollower || newTerm > n.term || n.leader != leader
	if n.role != RoleFollower {
		n.logf("repl: replica %d: %s -> follower (term %d -> %d)", n.cfg.ID, n.role, n.term, newTerm)
	}
	if newTerm > n.term {
		n.term = newTerm
		n.votedFor = -1
		if err := writeTermState(n.cfg.FS, n.cfg.Dir, n.term, n.votedFor); err != nil {
			n.persistErr = err
		}
	}
	n.role = RoleFollower
	n.leader = leader
	n.readyLSN = 0
	n.resetElectionLocked()
	n.failWaitersLocked(ErrLostLeadership)
	if changed {
		n.notifyLocked()
	}
}

// advanceCommitLocked applies the commit rule on a leader: the majority
// durable point commits only when its entry carries the current term
// (§5.4.2 — a new leader first commits its own no-op barrier, which
// transitively commits every earlier entry).
func (n *Node) advanceCommitLocked() {
	if n.role != RoleLeader {
		return
	}
	durables := make([]uint64, 0, len(n.peers)+1)
	durables = append(durables, n.localDurable)
	durables = append(durables, n.match...)
	sort.Slice(durables, func(i, j int) bool { return durables[i] > durables[j] })
	m := durables[n.majority()-1]
	if m > n.commitLSN && n.termAt(m) == n.term {
		n.commitLSN = m
		n.applyCond.Broadcast()
		n.completeWaitersLocked()
		n.kickAll() // piggyback the new commit index promptly
	}
}

// proposeLocked appends enveloped entries for the current term (mu held,
// leader only) and registers a commit waiter for the batch's last LSN.
func (n *Node) proposeLocked(kind byte, payloads [][]byte) (Ticket, error) {
	if n.walErr != nil {
		return Ticket{}, n.walErr
	}
	batch := make([][]byte, len(payloads))
	for i, p := range payloads {
		batch[i] = encodeEntry(n.term, kind, p)
	}
	t, err := n.log.AppendBatch(batch)
	if err != nil {
		n.walErr = err
		return Ticket{}, err
	}
	term := n.term
	for _, b := range batch {
		n.terms = append(n.terms, term)
		n.data = append(n.data, b)
	}
	n.lastLSN = t.LastLSN
	n.pendingAppends++
	done := make(chan error, 1)
	n.waiters[t.LastLSN] = append(n.waiters[t.LastLSN], done)
	n.proposals.Add(1)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		err := t.Wait()
		n.mu.Lock()
		n.pendingAppends--
		n.walCond.Broadcast()
		if err != nil {
			n.walErr = err
		} else {
			d := t.LastLSN
			if d > n.lastLSN {
				d = n.lastLSN // truncated underneath us after step-down
			}
			if d > n.localDurable {
				n.localDurable = d
			}
			n.advanceCommitLocked()
		}
		n.mu.Unlock()
		n.kickAll()
	}()
	n.kickAll()
	return Ticket{FirstLSN: t.FirstLSN, LastLSN: t.LastLSN, done: done}, nil
}

// Propose replicates application payloads. Only a leader may propose;
// followers get a NotLeaderError naming the leader to redirect to. The
// returned ticket's Wait resolves once the whole batch is fsynced on a
// majority (commit), or fails indeterminate on leadership loss.
func (n *Node) Propose(payloads [][]byte) (Ticket, error) {
	if len(payloads) == 0 {
		return Ticket{}, errors.New("repl: empty proposal")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return Ticket{}, ErrClosed
	}
	if n.role != RoleLeader {
		return Ticket{}, &NotLeaderError{Leader: n.leader, Term: n.term}
	}
	return n.proposeLocked(kindApp, payloads)
}

// WaitApplied blocks until the local state machine has applied lsn.
func (n *Node) WaitApplied(lsn uint64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	for !n.closed && n.appliedLSN < lsn && n.lastLSN >= lsn {
		n.applyCond.Wait()
	}
	if n.appliedLSN >= lsn {
		return nil
	}
	if n.closed {
		return ErrClosed
	}
	return ErrLostLeadership // entry truncated before commit
}

// truncateLocked discards the uncommitted suffix from lsn on, in both the
// WAL and the caches. It drains in-flight group commits first so the
// wal.TruncateFrom no-appends-in-flight contract holds.
func (n *Node) truncateLocked(lsn uint64) error {
	for n.pendingAppends > 0 && !n.closed {
		n.walCond.Wait()
	}
	if n.closed {
		return ErrClosed
	}
	if lsn > n.lastLSN {
		return nil
	}
	if _, err := n.log.TruncateFrom(lsn); err != nil {
		n.walErr = err
		return err
	}
	k := lsn - n.floor - 1
	n.terms = n.terms[:k]
	n.data = n.data[:k]
	n.lastLSN = lsn - 1
	if n.localDurable > n.lastLSN {
		n.localDurable = n.lastLSN
	}
	n.applyCond.Broadcast() // wake WaitApplied callers for truncated LSNs
	return nil
}

// HandleAppend is the follower half of AppendEntries: consistency check
// at (PrevLSN, PrevTerm), conflict-suffix truncation, durable append
// (the response is sent only after fsync), then commit-index adoption.
func (n *Node) HandleAppend(req AppendRequest) AppendResponse {
	n.appendsRecv.Add(1)
	n.mu.Lock()
	defer n.mu.Unlock()
	// Drain in-flight local group commits first: everything below assumes
	// the WAL is quiescent, and holding mu from here on keeps it so.
	for n.pendingAppends > 0 && !n.closed {
		n.walCond.Wait()
	}
	fail := func() AppendResponse {
		return AppendResponse{Term: n.term, DurableLSN: n.localDurable}
	}
	if n.closed || req.Term < n.term {
		return fail()
	}
	if req.Term == n.term && n.role == RoleLeader {
		// Two leaders in one term would mean a broken election; refuse.
		n.protocolErrs.Add(1)
		return fail()
	}
	if req.Term > n.term || n.role != RoleFollower {
		n.stepDownLocked(req.Term, req.Leader)
	}
	if n.leader != req.Leader {
		n.leader = req.Leader
		n.notifyLocked()
	}
	n.lastContact = time.Now()
	n.resetElectionLocked()

	if req.PrevLSN > n.lastLSN {
		return fail() // gap: leader must rewind
	}
	// Below our floor the snapshot vouches for consistency (snapshots
	// only ever cover committed prefixes); at or above it, terms must
	// match.
	if req.PrevLSN > n.floor && n.termAt(req.PrevLSN) != req.PrevTerm {
		return fail()
	}

	// Skip entries we already hold; truncate at the first conflict.
	idx := 0
	for idx < len(req.Entries) {
		e := req.Entries[idx]
		if e.LSN <= n.floor {
			idx++
			continue
		}
		if e.LSN > n.lastLSN {
			break
		}
		term, _, _, err := decodeEntry(e.Data)
		if err != nil {
			n.protocolErrs.Add(1)
			return fail()
		}
		if n.termAt(e.LSN) != term {
			if e.LSN <= n.commitLSN {
				// A leader contradicting our committed prefix violates
				// the protocol; never truncate below the commit index.
				n.protocolErrs.Add(1)
				return fail()
			}
			if err := n.truncateLocked(e.LSN); err != nil {
				return fail()
			}
			break
		}
		idx++
	}
	if idx < len(req.Entries) {
		first := req.Entries[idx].LSN
		if first != n.lastLSN+1 {
			n.protocolErrs.Add(1)
			return fail()
		}
		batch := make([][]byte, 0, len(req.Entries)-idx)
		entryTerms := make([]uint64, 0, len(req.Entries)-idx)
		for _, e := range req.Entries[idx:] {
			if e.LSN != first+uint64(len(batch)) {
				n.protocolErrs.Add(1)
				return fail()
			}
			term, _, _, err := decodeEntry(e.Data)
			if err != nil {
				n.protocolErrs.Add(1)
				return fail()
			}
			batch = append(batch, e.Data)
			entryTerms = append(entryTerms, term)
		}
		t, err := n.log.AppendBatch(batch)
		if err == nil {
			err = t.Wait() // durable before we acknowledge
		}
		if err != nil {
			n.walErr = err
			return fail()
		}
		for i := range batch {
			n.terms = append(n.terms, entryTerms[i])
			n.data = append(n.data, batch[i])
		}
		n.lastLSN = t.LastLSN
		if t.LastLSN > n.localDurable {
			n.localDurable = t.LastLSN
		}
	}

	if c := min(req.CommitLSN, n.lastLSN); c > n.commitLSN {
		n.commitLSN = c
		n.applyCond.Broadcast()
	}
	return AppendResponse{Term: n.term, Success: true, DurableLSN: n.localDurable}
}

// HandleVote is the voter half of elections: persist the term and vote
// before answering, and grant only to candidates whose (lastTerm,
// lastLSN) is at least ours — the election restriction that makes the
// winner a superset of every committed entry.
func (n *Node) HandleVote(req VoteRequest) VoteResponse {
	n.votesRecv.Add(1)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed || req.Term < n.term {
		return VoteResponse{Term: n.term}
	}
	if req.Term > n.term {
		n.stepDownLocked(req.Term, -1)
	}
	if n.persistErr != nil {
		return VoteResponse{Term: n.term}
	}
	lastTerm := n.lastTermLocked()
	upToDate := req.LastTerm > lastTerm ||
		(req.LastTerm == lastTerm && req.LastLSN >= n.lastLSN)
	if !upToDate || (n.votedFor != -1 && n.votedFor != req.Candidate) {
		return VoteResponse{Term: n.term}
	}
	n.votedFor = req.Candidate
	if err := writeTermState(n.cfg.FS, n.cfg.Dir, n.term, n.votedFor); err != nil {
		n.persistErr = err
		return VoteResponse{Term: n.term}
	}
	n.resetElectionLocked()
	return VoteResponse{Term: n.term, Granted: true}
}

// HandleTimeoutNow is the receiving half of leadership transfer: campaign
// immediately instead of waiting out the election timeout.
func (n *Node) HandleTimeoutNow() {
	n.mu.Lock()
	if n.closed || n.role == RoleLeader {
		n.mu.Unlock()
		return
	}
	n.logf("repl: replica %d: leadership transfer received, campaigning now", n.cfg.ID)
	n.mu.Unlock()
	n.startElection()
}

// TransferLeadership asks the most caught-up follower to campaign
// immediately, so a planned shutdown hands off without an election
// timeout gap. Returns the chosen successor's id.
func (n *Node) TransferLeadership(ctx context.Context) (int, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return -1, ErrClosed
	}
	if n.role != RoleLeader {
		err := &NotLeaderError{Leader: n.leader, Term: n.term}
		n.mu.Unlock()
		return -1, err
	}
	best, bestMatch := -1, uint64(0)
	for i, p := range n.peers {
		if n.match[i] >= bestMatch && n.match[i] > 0 {
			best, bestMatch = p, n.match[i]
		}
	}
	n.mu.Unlock()
	if best < 0 {
		return -1, errors.New("repl: no caught-up follower to transfer to")
	}
	n.logf("repl: replica %d: transferring leadership to %d (match %d)", n.cfg.ID, best, bestMatch)
	return best, n.cfg.Transport.TimeoutNow(ctx, best)
}

func (n *Node) startElection() {
	n.mu.Lock()
	if n.closed || n.role == RoleLeader || n.persistErr != nil {
		n.mu.Unlock()
		return
	}
	n.term++
	n.role = RoleCandidate
	n.votedFor = n.cfg.ID
	n.leader = -1
	if err := writeTermState(n.cfg.FS, n.cfg.Dir, n.term, n.votedFor); err != nil {
		n.persistErr = err
		n.mu.Unlock()
		return
	}
	n.votes = map[int]bool{n.cfg.ID: true}
	n.resetElectionLocked()
	n.elections.Add(1)
	term := n.term
	req := VoteRequest{Term: term, Candidate: n.cfg.ID, LastLSN: n.lastLSN, LastTerm: n.lastTermLocked()}
	n.logf("repl: replica %d: campaigning in term %d (last %d/%d)", n.cfg.ID, term, req.LastTerm, req.LastLSN)
	n.notifyLocked()
	n.maybeWinLocked(term)
	// Register the vote fan-out while still closed==false under mu, so
	// Close's wg.Wait cannot start before these Adds.
	n.wg.Add(len(n.peers))
	n.mu.Unlock()
	for _, p := range n.peers {
		p := p
		go func() {
			defer n.wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), n.rpcTimeout())
			defer cancel()
			resp, err := n.cfg.Transport.Vote(ctx, p, req)
			if err != nil {
				return
			}
			n.mu.Lock()
			defer n.mu.Unlock()
			if resp.Term > n.term {
				n.stepDownLocked(resp.Term, -1)
				return
			}
			if n.closed || n.role != RoleCandidate || n.term != term || !resp.Granted {
				return
			}
			n.votes[p] = true
			n.maybeWinLocked(term)
		}()
	}
}

func (n *Node) maybeWinLocked(term uint64) {
	if n.role != RoleCandidate || n.term != term || len(n.votes) < n.majority() {
		return
	}
	n.role = RoleLeader
	n.leader = n.cfg.ID
	now := time.Now()
	for i := range n.peers {
		n.next[i] = n.lastLSN + 1
		n.match[i] = 0
		n.lastAck[i] = now
	}
	// Commit barrier: a fresh leader may only commit entries of its own
	// term, so it immediately proposes a no-op; committing it commits the
	// entire inherited prefix too.
	if t, err := n.proposeLocked(kindNoop, [][]byte{nil}); err == nil {
		n.readyLSN = t.LastLSN
	}
	n.logf("repl: replica %d: leader of term %d (barrier LSN %d)", n.cfg.ID, n.term, n.readyLSN)
	n.notifyLocked()
	n.kickAll()
}

// runPeer is the per-follower replication loop: on each kick or
// heartbeat tick, ship the follower's next window of entries (or an
// empty heartbeat carrying the commit index) and fold the response into
// match/next state.
func (n *Node) runPeer(i int) {
	defer n.wg.Done()
	timer := time.NewTimer(n.cfg.HeartbeatInterval)
	defer timer.Stop()
	for {
		select {
		case <-n.done:
			return
		case <-n.kick[i]:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		case <-timer.C:
		}
		timer.Reset(n.cfg.HeartbeatInterval)

		n.mu.Lock()
		if n.closed || n.role != RoleLeader {
			n.mu.Unlock()
			continue
		}
		term := n.term
		peer := n.peers[i]
		nextLSN := n.next[i]
		if nextLSN <= n.floor {
			// The follower needs entries our snapshot swallowed; without
			// an install-snapshot RPC it cannot catch up from us. Keep
			// probing at the floor so leadership stays visible.
			n.protocolErrs.Add(1)
			nextLSN = n.floor + 1
			n.next[i] = nextLSN
		}
		prev := nextLSN - 1
		req := AppendRequest{
			Term: term, Leader: n.cfg.ID,
			PrevLSN: prev, PrevTerm: n.termAt(prev),
			CommitLSN: n.commitLSN,
		}
		upper := prev
		if n.lastLSN >= nextLSN {
			hi := min(n.lastLSN, nextLSN+maxAppendBatch-1)
			for l := nextLSN; l <= hi; l++ {
				req.Entries = append(req.Entries, Entry{LSN: l, Data: n.dataAt(l)})
			}
			upper = hi
		}
		n.mu.Unlock()

		ctx, cancel := context.WithTimeout(context.Background(), n.rpcTimeout())
		resp, err := n.cfg.Transport.Append(ctx, peer, req)
		cancel()
		n.appendsSent.Add(1)
		if err != nil {
			continue
		}
		n.mu.Lock()
		if resp.Term > n.term {
			n.stepDownLocked(resp.Term, -1)
			n.mu.Unlock()
			continue
		}
		if n.role == RoleLeader && n.term == term && !n.closed {
			n.lastAck[i] = time.Now()
			if resp.Success {
				// Cap match at what we actually shipped: the follower's
				// durable tail may include a divergent suffix from an
				// older leader that we have not confirmed entry-by-entry.
				m := min(resp.DurableLSN, upper)
				if m > n.match[i] {
					n.match[i] = m
				}
				if m+1 > n.next[i] {
					n.next[i] = m + 1
				}
				n.advanceCommitLocked()
				if n.next[i] <= n.lastLSN {
					n.kickIdx(i) // more to ship
				}
			} else {
				nn := n.next[i] - 1
				if resp.DurableLSN+1 < nn {
					nn = resp.DurableLSN + 1
				}
				nn = max(nn, n.floor+1)
				n.next[i] = max(nn, 1)
				n.kickIdx(i)
			}
		}
		n.mu.Unlock()
	}
}

// runTicker drives follower election timeouts and the leader's
// check-quorum: a leader that cannot reach a majority for a full
// election timeout steps down and fails its waiters rather than serving
// a minority partition forever.
func (n *Node) runTicker() {
	defer n.wg.Done()
	interval := n.cfg.HeartbeatInterval / 2
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-n.done:
			return
		case <-tick.C:
		}
		elect := false
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return
		}
		now := time.Now()
		if n.role == RoleLeader {
			if n.cfg.Replicas > 1 {
				reach := 1 // self
				for i := range n.peers {
					if now.Sub(n.lastAck[i]) <= n.cfg.ElectionTimeout {
						reach++
					}
				}
				if reach < n.majority() {
					n.logf("repl: replica %d: check-quorum failed (%d/%d reachable), stepping down", n.cfg.ID, reach, n.cfg.Replicas)
					n.stepDownLocked(n.term, -1)
				}
			}
		} else if now.After(n.electionAt) {
			elect = true
		}
		n.mu.Unlock()
		if elect {
			n.startElection()
		}
	}
}

// runApply delivers committed entries to the state machine in LSN order.
func (n *Node) runApply() {
	defer n.wg.Done()
	n.mu.Lock()
	for {
		for !n.closed && n.appliedLSN >= n.commitLSN {
			n.applyCond.Wait()
		}
		if n.closed {
			n.mu.Unlock()
			return
		}
		lsn := n.appliedLSN + 1
		data := n.dataAt(lsn)
		n.mu.Unlock()
		term, kind, payload, err := decodeEntry(data)
		if err == nil && kind == kindApp && n.cfg.Apply != nil {
			n.cfg.Apply(lsn, term, payload)
		}
		n.mu.Lock()
		n.appliedLSN = lsn
		n.applyCond.Broadcast()
	}
}

func (n *Node) runNotify() {
	defer n.wg.Done()
	for {
		select {
		case <-n.done:
			return
		case st := <-n.roleCh:
			if n.cfg.OnRole != nil {
				n.cfg.OnRole(st)
			}
		}
	}
}

// Counters reports session counters for metrics.
func (n *Node) Counters() (elections, appendsSent, appendsRecv, votesRecv, proposals, protocolErrs int64) {
	return n.elections.Load(), n.appendsSent.Load(), n.appendsRecv.Load(),
		n.votesRecv.Load(), n.proposals.Load(), n.protocolErrs.Load()
}

// WALStats exposes the underlying log's stats.
func (n *Node) WALStats() wal.Stats { return n.log.Stats() }

// ElectionTimeout reports the resolved base liveness timeout — callers
// use it as the staleness bound on leader knowledge.
func (n *Node) ElectionTimeout() time.Duration { return n.cfg.ElectionTimeout }

// Err reports a latched local failure (WAL write or term-state persist),
// nil when healthy.
func (n *Node) Err() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.walErr != nil {
		return n.walErr
	}
	return n.persistErr
}

// Close stops the protocol goroutines and closes the log. Pending
// proposal waiters fail with ErrClosed.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.failWaitersLocked(ErrClosed)
	n.applyCond.Broadcast()
	n.walCond.Broadcast()
	n.mu.Unlock()
	close(n.done)
	n.wg.Wait()
	return n.log.Close()
}
