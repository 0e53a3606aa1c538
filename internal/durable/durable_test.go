package durable

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hrtsched/internal/fault"
	"hrtsched/internal/plan"
	"hrtsched/internal/wal"
)

var testSpec = plan.Spec{OverheadNs: 4_600, UtilizationLimit: 0.79}

func taskSet(n int, period int64) plan.TaskSet {
	set := make(plan.TaskSet, n)
	for i := range set {
		set[i] = plan.Task{PeriodNs: period, SliceNs: period / int64(10*(i+1))}
	}
	return set
}

func TestRecordEncodeDecodeRoundtrip(t *testing.T) {
	recs := []Record{
		{Kind: KindPlace, Origin: OriginClient, Node: 0, ID: "a", Tasks: taskSet(3, 100_000)},
		{Kind: KindPlace, Origin: OriginRebalance, Node: 7, ID: strings.Repeat("x", 300), Tasks: taskSet(1, 250_000)},
		{Kind: KindRemove, Origin: OriginClient, Node: 2, ID: "gone"},
		{Kind: KindRemove, Origin: OriginRelease, Node: 1, ID: "moved"},
	}
	for i, r := range recs {
		p, err := r.Encode()
		if err != nil {
			t.Fatalf("record %d encode: %v", i, err)
		}
		got, err := DecodeRecord(p)
		if err != nil {
			t.Fatalf("record %d decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("record %d roundtrip:\n got %+v\nwant %+v", i, got, r)
		}
	}
	// A remove's tasks are stripped on the wire: they are resolved from the
	// shadow, never trusted from the record.
	r := Record{Kind: KindRemove, Origin: OriginClient, Node: 0, ID: "a", Tasks: taskSet(2, 100_000)}
	p, err := r.Encode()
	if err != nil {
		t.Fatalf("encode remove with tasks: %v", err)
	}
	if got, _ := DecodeRecord(p); got.Tasks != nil {
		t.Fatalf("remove carried tasks onto the wire: %+v", got)
	}
}

func TestRecordEncodeValidation(t *testing.T) {
	bad := []Record{
		{Kind: 0, ID: "a"},
		{Kind: KindPlace, Origin: OriginRelease + 1, ID: "a", Tasks: taskSet(1, 1000)},
		{Kind: KindPlace, Node: -1, ID: "a", Tasks: taskSet(1, 1000)},
		{Kind: KindPlace, ID: "", Tasks: taskSet(1, 1000)},
		{Kind: KindPlace, ID: strings.Repeat("x", maxIDLen+1), Tasks: taskSet(1, 1000)},
	}
	for i, r := range bad {
		if _, err := r.Encode(); err == nil {
			t.Errorf("bad record %d encoded: %+v", i, r)
		}
	}
}

func TestDecodeRecordRejectsGarbage(t *testing.T) {
	place := Record{Kind: KindPlace, Origin: OriginClient, Node: 0, ID: "ab", Tasks: taskSet(2, 100_000)}
	good, err := place.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	cases := map[string][]byte{
		"empty":            nil,
		"too short":        good[:6],
		"bad kind":         append([]byte{9}, good[1:]...),
		"bad origin":       append([]byte{good[0], 9}, good[2:]...),
		"truncated id":     good[:9],
		"truncated tasks":  good[:len(good)-4],
		"trailing garbage": append(append([]byte(nil), good...), 0),
	}
	for name, p := range cases {
		if _, err := DecodeRecord(p); err == nil {
			t.Errorf("%s decoded", name)
		}
	}
	// A place with zero tasks is structurally valid but semantically void.
	empty, err := Record{Kind: KindRemove, Origin: OriginClient, Node: 0, ID: "a"}.Encode()
	if err != nil {
		t.Fatalf("encode remove: %v", err)
	}
	empty[0] = byte(KindPlace)
	if _, err := DecodeRecord(empty); err == nil {
		t.Errorf("taskless place decoded")
	}
}

// FuzzDecodeRecord checks the record codec agrees with itself: decoding
// never panics, and a payload DecodeRecord accepts re-encodes to the same
// bytes. A remove is the one exception, because its encoding drops the
// tasks by design: it must re-encode to the same record without them.
func FuzzDecodeRecord(f *testing.F) {
	seeds := []Record{
		{Kind: KindPlace, Origin: OriginClient, Node: 0, ID: "a", Tasks: taskSet(3, 100_000)},
		{Kind: KindRemove, Origin: OriginRelease, Node: 1, ID: "moved"},
		{Kind: KindPlaceDAG, Origin: OriginClient, Node: 3, ID: "dag-a",
			Tasks: plan.TaskSet{{PeriodNs: 1_000_000, SliceNs: 400_000}}, DAG: dagMeta()},
	}
	for _, r := range seeds {
		p, err := r.Encode()
		if err != nil {
			f.Fatalf("encode seed %+v: %v", r, err)
		}
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		r, err := DecodeRecord(p)
		if err != nil {
			return
		}
		if r.Node < 0 || r.Node > maxNode {
			t.Fatalf("decoded node %d outside [0, %d]", r.Node, maxNode)
		}
		enc, err := r.Encode()
		if err != nil {
			t.Fatalf("decoded %+v, which Encode refuses: %v", r, err)
		}
		if r.Kind == KindRemove && len(r.Tasks) > 0 {
			back, err := DecodeRecord(enc)
			r.Tasks = nil
			if err != nil || !reflect.DeepEqual(back, r) {
				t.Fatalf("remove re-encoded to %+v (%v), want %+v", back, err, r)
			}
			return
		}
		if !bytes.Equal(enc, p) {
			t.Fatalf("re-encoding %+v:\n got %x\nwant %x", r, enc, p)
		}
	})
}

func TestStateApplyCountersAndOrphans(t *testing.T) {
	st := NewState(2)
	apply := func(r Record) plan.TaskSet {
		t.Helper()
		if !st.Peek(r) {
			t.Fatalf("Peek refused %+v", r)
		}
		return st.Apply(r)
	}
	setA := taskSet(2, 100_000)
	apply(Record{Kind: KindPlace, Origin: OriginClient, Node: 0, ID: "a", Tasks: setA})
	apply(Record{Kind: KindPlace, Origin: OriginClient, Node: 1, ID: "b", Tasks: taskSet(1, 200_000)})
	// Move "a" to node 1: the place lands first (dual reservation)...
	apply(Record{Kind: KindPlace, Origin: OriginRebalance, Node: 1, ID: "a", Tasks: setA})
	if st.Placements["a"] != 1 {
		t.Fatalf("move did not repoint a: %v", st.Placements)
	}
	// ...and until the release record, the stale node-0 copy is an orphan.
	orphans := st.Orphans()
	if len(orphans) != 1 || orphans[0].Node != 0 || orphans[0].ID != "a" {
		t.Fatalf("orphans = %+v", orphans)
	}
	got := apply(Record{Kind: KindRemove, Origin: OriginRelease, Node: 0, ID: "a"})
	if !reflect.DeepEqual(got, setA) {
		t.Fatalf("release resolved wrong tasks: %v", got)
	}
	if st.Placements["a"] != 1 {
		t.Fatalf("release evicted the live placement: %v", st.Placements)
	}
	if len(st.Orphans()) != 0 {
		t.Fatalf("orphans after release: %+v", st.Orphans())
	}
	apply(Record{Kind: KindRemove, Origin: OriginClient, Node: 1, ID: "b"})
	if _, ok := st.Placements["b"]; ok {
		t.Fatalf("client remove kept the placement")
	}
	want := Counters{Placed: 2, Removed: 1, Rebalanced: 1}
	if st.Counters != want {
		t.Fatalf("counters = %+v, want %+v", st.Counters, want)
	}
}

func TestStatePeekRefusals(t *testing.T) {
	st := NewState(1)
	st.Apply(Record{Kind: KindPlace, Origin: OriginClient, Node: 0, ID: "a", Tasks: taskSet(1, 1000)})
	cases := []Record{
		{Kind: KindPlace, Node: 1, ID: "x", Tasks: taskSet(1, 1000)}, // no such node
		{Kind: KindPlace, Node: -1, ID: "x", Tasks: taskSet(1, 1000)},
		{Kind: KindPlace, Node: 0, ID: "a", Tasks: taskSet(1, 1000)}, // duplicate on node
		{Kind: KindPlace, Node: 0, ID: "x"},                          // no tasks
		{Kind: KindRemove, Node: 0, ID: "missing"},
		{Kind: 9, Node: 0, ID: "a"},
	}
	for i, r := range cases {
		if st.Peek(r) {
			t.Errorf("case %d: Peek accepted %+v", i, r)
		}
	}
}

func TestStateCloneIsIndependent(t *testing.T) {
	st := NewState(1)
	st.Apply(Record{Kind: KindPlace, Origin: OriginClient, Node: 0, ID: "a", Tasks: taskSet(1, 1000)})
	c := st.Clone()
	st.Apply(Record{Kind: KindRemove, Origin: OriginClient, Node: 0, ID: "a"})
	if len(c.Nodes[0]) != 1 || c.Placements["a"] != 0 {
		t.Fatalf("clone mutated with the original: %+v", c)
	}
}

func TestSnapshotRoundtripFallbackAndPrune(t *testing.T) {
	dir := t.TempDir()
	fs := wal.OSFS{}
	st := NewState(2)
	st.Apply(Record{Kind: KindPlace, Origin: OriginClient, Node: 1, ID: "a", Tasks: taskSet(2, 100_000)})

	if err := writeSnapshot(fs, dir, 42, 0, testSpec, st); err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}
	got, lsn, _, specChanged, bad, err := loadLatestSnapshot(fs, dir, testSpec)
	if err != nil || lsn != 42 || specChanged || bad != 0 {
		t.Fatalf("load = lsn %d specChanged %v bad %d err %v", lsn, specChanged, bad, err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("snapshot state:\n got %+v\nwant %+v", got, st)
	}

	// A corrupt newer snapshot falls back to the older one, counted.
	if err := writeSnapshot(fs, dir, 50, 0, testSpec, st); err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}
	path := filepath.Join(dir, snapName(50))
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("corrupt snapshot: %v", err)
	}
	_, lsn, _, _, bad, err = loadLatestSnapshot(fs, dir, testSpec)
	if err != nil || lsn != 42 || bad != 1 {
		t.Fatalf("fallback load = lsn %d bad %d err %v", lsn, bad, err)
	}

	// A spec change is flagged, not fatal.
	other := testSpec
	other.UtilizationLimit = 0.5
	if _, _, _, specChanged, _, err = loadLatestSnapshot(fs, dir, other); err != nil || !specChanged {
		t.Fatalf("spec change not flagged: %v, %v", specChanged, err)
	}

	// Pruning keeps the newest snapKeep files.
	if err := writeSnapshot(fs, dir, 60, 0, testSpec, st); err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}
	if err := pruneSnapshots(fs, dir); err != nil {
		t.Fatalf("prune: %v", err)
	}
	names, _ := fs.ReadDir(dir)
	var snaps []string
	for _, n := range names {
		if _, ok := parseSnapName(n); ok {
			snaps = append(snaps, n)
		}
	}
	if len(snaps) != snapKeep {
		t.Fatalf("snapshots after prune: %v", snaps)
	}
}

// TestSnapshotNotInstallableIsBad: a CRC-valid snapshot the cluster
// could not install is refused at load and counted bad, and recovery
// falls back to the older snapshot. That is a placement naming a node
// outside the snapshot's own [0, 2), a task plan.Analyze calls bad-task,
// or the last lsn, after which the log would wrap.
func TestSnapshotNotInstallableIsBad(t *testing.T) {
	cases := map[string]func(st *State) uint64{}
	for _, node := range []int{-1, 2, 5} {
		cases[fmt.Sprintf("node %d", node)] = func(st *State) uint64 { st.Placements["a"] = node; return 7 }
	}
	for name, task := range map[string]plan.Task{
		"period 0":       {PeriodNs: 0, SliceNs: 10_000},
		"slice 0":        {PeriodNs: 100_000, SliceNs: 0},
		"slice > period": {PeriodNs: 100_000, SliceNs: 200_000},
	} {
		cases[name] = func(st *State) uint64 {
			st.Nodes[1][0].Tasks = plan.TaskSet{task}
			return 7
		}
	}
	cases["last lsn"] = func(*State) uint64 { return math.MaxUint64 }

	for name, spoil := range cases {
		dir := t.TempDir()
		fs := wal.OSFS{}
		good := NewState(2)
		good.Apply(Record{Kind: KindPlace, Origin: OriginClient, Node: 1, ID: "a", Tasks: taskSet(2, 100_000)})
		if err := writeSnapshot(fs, dir, 3, 0, testSpec, good); err != nil {
			t.Fatalf("writeSnapshot: %v", err)
		}
		bad := good.Clone()
		lsn := spoil(bad)
		if err := writeSnapshot(fs, dir, lsn, 0, testSpec, bad); err != nil {
			t.Fatalf("writeSnapshot: %v", err)
		}
		s, err := Open(Config{Dir: dir, NumNodes: 2, Spec: testSpec})
		if err != nil {
			t.Fatalf("%s: Open: %v", name, err)
		}
		rec := s.Recovery()
		if rec.BadSnapshots != 1 || rec.SnapshotLSN != 3 || !reflect.DeepEqual(s.RecoveredState(), good) {
			t.Fatalf("%s: recovery %+v state %+v, want the lsn-3 snapshot and 1 bad", name, rec, s.RecoveredState())
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

// alwaysApply replays accepting everything, the common test engine.
func alwaysApply(Record, plan.TaskSet) bool { return true }

func TestStoreLogCloseRecover(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, NumNodes: 2, Spec: testSpec}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.Replay(alwaysApply); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if err := s.LogBatch([]Record{
		{Kind: KindPlace, Origin: OriginClient, Node: 0, ID: "a", Tasks: taskSet(2, 100_000)},
		{Kind: KindPlace, Origin: OriginClient, Node: 1, ID: "b", Tasks: taskSet(1, 200_000)},
	}); err != nil {
		t.Fatalf("LogBatch: %v", err)
	}
	if err := s.LogBatch([]Record{{Kind: KindRemove, Origin: OriginClient, Node: 0, ID: "a"}}); err != nil {
		t.Fatalf("LogBatch remove: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A clean close snapshots everything: the next session replays nothing.
	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if got := s2.Recovery(); got.SnapshotLSN != 3 || got.LastLSN != 3 {
		t.Fatalf("recovery after clean close: %+v", got)
	}
	replays := 0
	if err := s2.Replay(func(Record, plan.TaskSet) bool { replays++; return true }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if replays != 0 {
		t.Fatalf("clean restart replayed %d records", replays)
	}
	st := s2.RecoveredState()
	if len(st.Nodes[0]) != 0 || len(st.Nodes[1]) != 1 || st.Nodes[1][0].ID != "b" {
		t.Fatalf("recovered state: %+v", st)
	}
	want := Counters{Placed: 2, Removed: 1}
	if st.Counters != want {
		t.Fatalf("recovered counters = %+v, want %+v", st.Counters, want)
	}
}

func TestStoreCrashReplaysSuffix(t *testing.T) {
	ffs := fault.NewFaultyFS(nil)
	dir := t.TempDir()
	cfg := Config{Dir: dir, NumNodes: 1, Spec: testSpec, FS: ffs}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	setA := taskSet(2, 100_000)
	if err := s.LogBatch([]Record{{Kind: KindPlace, Origin: OriginClient, Node: 0, ID: "a", Tasks: setA}}); err != nil {
		t.Fatalf("LogBatch: %v", err)
	}
	if err := s.LogBatch([]Record{{Kind: KindPlace, Origin: OriginDrain, Node: 0, ID: "b", Tasks: taskSet(1, 200_000)}}); err != nil {
		t.Fatalf("LogBatch: %v", err)
	}
	// Power loss: everything acked was synced, but no snapshot was cut, so
	// the next session rebuilds purely from the log.
	if err := ffs.Crash(fault.CrashOptions{}); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	s.Close() //nolint:errcheck // the crashed FS fails the final snapshot; that's the point
	ffs.Restart()

	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	var got []Record
	err = s2.Replay(func(r Record, tasks plan.TaskSet) bool {
		if r.Kind == KindPlace && !reflect.DeepEqual(tasks, r.Tasks) {
			t.Errorf("resolved tasks diverge for %q", r.ID)
		}
		got = append(got, r)
		return true
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	rec := s2.Recovery()
	if rec.SnapshotLSN != 0 || rec.Replayed != 2 || rec.Rejected != 0 || rec.LastLSN != 2 {
		t.Fatalf("recovery: %+v", rec)
	}
	if len(got) != 2 || got[0].ID != "a" || got[1].ID != "b" {
		t.Fatalf("replayed records: %+v", got)
	}
	st := s2.RecoveredState()
	if st.Counters.Placed != 1 || st.Counters.Drained != 1 {
		t.Fatalf("rebuilt counters: %+v", st.Counters)
	}
}

func TestStoreReplayCountsEngineRefusals(t *testing.T) {
	ffs := fault.NewFaultyFS(nil)
	dir := t.TempDir()
	cfg := Config{Dir: dir, NumNodes: 1, Spec: testSpec, FS: ffs}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("s%d", i)
		if err := s.LogBatch([]Record{{Kind: KindPlace, Origin: OriginClient, Node: 0, ID: id, Tasks: taskSet(1, 100_000)}}); err != nil {
			t.Fatalf("LogBatch: %v", err)
		}
	}
	ffs.Crash(fault.CrashOptions{}) //nolint:errcheck
	s.Close()                       //nolint:errcheck
	ffs.Restart()

	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	// The "engine" refuses the middle record: it is skipped on both sides,
	// and the records around it still land.
	err = s2.Replay(func(r Record, _ plan.TaskSet) bool { return r.ID != "s1" })
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	rec := s2.Recovery()
	if rec.Replayed != 2 || rec.Rejected != 1 {
		t.Fatalf("recovery: %+v", rec)
	}
	st := s2.RecoveredState()
	if len(st.Nodes[0]) != 2 {
		t.Fatalf("refused record leaked into the shadow: %+v", st.Nodes[0])
	}
}

func TestStoreOrphanReleaseLogsRemoves(t *testing.T) {
	ffs := fault.NewFaultyFS(nil)
	dir := t.TempDir()
	cfg := Config{Dir: dir, NumNodes: 2, Spec: testSpec, FS: ffs}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	setA := taskSet(1, 100_000)
	// A move interrupted between its two halves: destination place logged,
	// home release lost to the crash.
	if err := s.LogBatch([]Record{{Kind: KindPlace, Origin: OriginClient, Node: 0, ID: "a", Tasks: setA}}); err != nil {
		t.Fatalf("LogBatch: %v", err)
	}
	if err := s.LogBatch([]Record{{Kind: KindPlace, Origin: OriginRebalance, Node: 1, ID: "a", Tasks: setA}}); err != nil {
		t.Fatalf("LogBatch: %v", err)
	}
	ffs.Crash(fault.CrashOptions{}) //nolint:errcheck
	s.Close()                       //nolint:errcheck
	ffs.Restart()

	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := s2.Replay(alwaysApply); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	var released []Orphan
	n, err := s2.ReleaseOrphans(func(o Orphan) { released = append(released, o) })
	if err != nil || n != 1 {
		t.Fatalf("ReleaseOrphans = %d, %v", n, err)
	}
	if released[0].Node != 0 || released[0].ID != "a" {
		t.Fatalf("released = %+v", released)
	}
	st := s2.RecoveredState()
	if len(st.Nodes[0]) != 0 || st.Placements["a"] != 1 {
		t.Fatalf("post-release state: %+v", st)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The release was logged, so a third session sees no orphan.
	s3, err := Open(cfg)
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer s3.Close()
	if err := s3.Replay(alwaysApply); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if n, err := s3.ReleaseOrphans(func(Orphan) {}); err != nil || n != 0 {
		t.Fatalf("orphan resurrected: %d, %v", n, err)
	}
}

func TestStoreSnapshotCadenceCompactsLog(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Dir: dir, NumNodes: 1, Spec: testSpec,
		SnapshotEveryRecords: 4, SegmentBytes: 128,
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 16; i++ {
		id := fmt.Sprintf("s%03d", i)
		if err := s.LogBatch([]Record{{Kind: KindPlace, Origin: OriginClient, Node: 0, ID: id, Tasks: taskSet(1, 100_000)}}); err != nil {
			t.Fatalf("LogBatch %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := s.Stats()
	if st.Snapshots < 2 {
		t.Fatalf("cadence produced %d snapshots, want >= 2", st.Snapshots)
	}
	if st.LastSnapshotLSN != 16 {
		t.Fatalf("final snapshot LSN = %d, want 16", st.LastSnapshotLSN)
	}
	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if got := s2.Recovery().SnapshotLSN; got != 16 {
		t.Fatalf("recovered snapshot LSN = %d", got)
	}
	if len(s2.RecoveredState().Nodes[0]) != 16 {
		t.Fatalf("recovered entries: %d", len(s2.RecoveredState().Nodes[0]))
	}
}

func TestStoreSnapshotOutrunsTornLog(t *testing.T) {
	dir := t.TempDir()
	st := NewState(1)
	st.Apply(Record{Kind: KindPlace, Origin: OriginClient, Node: 0, ID: "a", Tasks: taskSet(1, 100_000)})
	// A snapshot claims LSN 10, but the log has nothing at all — the torn
	// tail it covered is gone. Reopening must not reissue LSNs <= 10.
	if err := writeSnapshot(wal.OSFS{}, dir, 10, 0, testSpec, st); err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}
	cfg := Config{Dir: dir, NumNodes: 1, Spec: testSpec}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rec := s.Recovery()
	if rec.SnapshotLSN != 10 || rec.LastLSN != 10 {
		t.Fatalf("recovery: %+v", rec)
	}
	if err := s.Replay(alwaysApply); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if err := s.LogBatch([]Record{{Kind: KindPlace, Origin: OriginClient, Node: 0, ID: "b", Tasks: taskSet(1, 200_000)}}); err != nil {
		t.Fatalf("LogBatch: %v", err)
	}
	if got := s.Stats().WAL.LastLSN; got != 11 {
		t.Fatalf("first post-outrun LSN = %d, want 11", got)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	got := s2.RecoveredState()
	if len(got.Nodes[0]) != 2 {
		t.Fatalf("state after outrun recovery: %+v", got.Nodes[0])
	}
}

func TestStoreRefusesNodeShrink(t *testing.T) {
	dir := t.TempDir()
	if err := writeSnapshot(wal.OSFS{}, dir, 1, 0, testSpec, NewState(3)); err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}
	_, err := Open(Config{Dir: dir, NumNodes: 2, Spec: testSpec})
	if err == nil || !strings.Contains(err.Error(), "drain") {
		t.Fatalf("shrink allowed: %v", err)
	}
	// A live placement on the dropped node is refused the same way, not
	// counted as a bad snapshot and silently replaced by an older one.
	placedDir := t.TempDir()
	placed := NewState(3)
	placed.Apply(Record{Kind: KindPlace, Origin: OriginClient, Node: 2, ID: "a", Tasks: taskSet(1, 100_000)})
	if err := writeSnapshot(wal.OSFS{}, placedDir, 2, 0, testSpec, placed); err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}
	_, err = Open(Config{Dir: placedDir, NumNodes: 2, Spec: testSpec})
	if err == nil || !strings.Contains(err.Error(), "drain") {
		t.Fatalf("shrink with a placement on the dropped node allowed: %v", err)
	}
	// Growing is fine: the new nodes start empty.
	s, err := Open(Config{Dir: dir, NumNodes: 5, Spec: testSpec})
	if err != nil {
		t.Fatalf("grow: %v", err)
	}
	defer s.Close()
	if got := len(s.RecoveredState().Nodes); got != 5 {
		t.Fatalf("padded nodes = %d", got)
	}
}

func TestStoreDegradesFailOpen(t *testing.T) {
	ffs := fault.NewFaultyFS(nil)
	cfg := Config{Dir: t.TempDir(), NumNodes: 1, Spec: testSpec, FS: ffs}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if err := s.LogBatch([]Record{{Kind: KindPlace, Origin: OriginClient, Node: 0, ID: "a", Tasks: taskSet(1, 100_000)}}); err != nil {
		t.Fatalf("healthy LogBatch: %v", err)
	}
	ffs.FailSyncAt(1)
	err = s.LogBatch([]Record{{Kind: KindPlace, Origin: OriginClient, Node: 0, ID: "b", Tasks: taskSet(1, 100_000)}})
	if !errors.Is(err, fault.ErrInjectedSync) {
		t.Fatalf("failed LogBatch: %v", err)
	}
	if s.DegradedErr() == nil || !s.Stats().Degraded {
		t.Fatalf("store did not latch degraded")
	}
	// Every later batch reports the same latched error, immediately.
	err = s.LogBatch([]Record{{Kind: KindRemove, Origin: OriginClient, Node: 0, ID: "a"}})
	if !errors.Is(err, fault.ErrInjectedSync) {
		t.Fatalf("post-degrade LogBatch: %v", err)
	}
}

func TestStoreLogBatchAfterClose(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), NumNodes: 1, Spec: testSpec})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	err = s.LogBatch([]Record{{Kind: KindRemove, Origin: OriginClient, Node: 0, ID: "a"}})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("LogBatch after close: %v", err)
	}
}

func dagMeta() *DAGMeta {
	return &DAGMeta{
		Cores: 4, PeriodNs: 1_000_000, DeadlineNs: 800_000, BoundNs: 400_000,
		Analyzer: "dag-classical",
		WCETNs:   []int64{50_000, 80_000, 30_000},
		Edges:    [][2]int{{0, 1}, {0, 2}, {1, 2}},
	}
}

func TestDAGRecordEncodeDecodeRoundtrip(t *testing.T) {
	recs := []Record{
		{Kind: KindPlaceDAG, Origin: OriginClient, Node: 3, ID: "dag-a",
			Tasks: plan.TaskSet{{PeriodNs: 1_000_000, SliceNs: 400_000}}, DAG: dagMeta()},
		{Kind: KindPlaceDAG, Origin: OriginRebalance, Node: 0, ID: "dag-b",
			Tasks: plan.TaskSet{{PeriodNs: 2_000_000, SliceNs: 100_000}},
			DAG:   &DAGMeta{Cores: 1, PeriodNs: 2_000_000, DeadlineNs: 2_000_000, BoundNs: 100_000, Analyzer: "dag-ab", WCETNs: []int64{100_000}}},
	}
	for i, r := range recs {
		p, err := r.Encode()
		if err != nil {
			t.Fatalf("dag record %d encode: %v", i, err)
		}
		got, err := DecodeRecord(p)
		if err != nil {
			t.Fatalf("dag record %d decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("dag record %d roundtrip:\n got %+v\nwant %+v", i, got, r)
		}
	}
	// DAG meta on a plain kind, or a DAG kind without meta, refuses to encode.
	bad := []Record{
		{Kind: KindPlace, Origin: OriginClient, ID: "x", Tasks: taskSet(1, 1000), DAG: dagMeta()},
		{Kind: KindPlaceDAG, Origin: OriginClient, ID: "x", Tasks: taskSet(1, 1000)},
		{Kind: KindPlaceDAG, Origin: OriginClient, ID: "x", Tasks: taskSet(1, 1000),
			DAG: &DAGMeta{Cores: 2, WCETNs: []int64{1}, Edges: [][2]int{{0, 5}}}},
	}
	for i, r := range bad {
		if _, err := r.Encode(); err == nil {
			t.Errorf("bad dag record %d encoded: %+v", i, r)
		}
	}
	// Truncating anywhere inside the DAG section must not decode.
	good, err := recs[0].Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	base := 10 + len(recs[0].ID) + 16*len(recs[0].Tasks) // prefix shared with KindPlace
	for cut := base; cut < len(good); cut++ {
		if _, err := DecodeRecord(good[:cut]); err == nil {
			t.Fatalf("dag record truncated at %d decoded", cut)
		}
	}
}

func TestStateAppliesDAGPlacements(t *testing.T) {
	st := NewState(1)
	meta := dagMeta()
	r := Record{Kind: KindPlaceDAG, Origin: OriginClient, Node: 0, ID: "dag-a",
		Tasks: plan.TaskSet{{PeriodNs: 1_000_000, SliceNs: 400_000}}, DAG: meta}
	if !st.Peek(r) {
		t.Fatalf("Peek refused a fresh DAG place")
	}
	if got := st.Apply(r); !reflect.DeepEqual(got, r.Tasks) {
		t.Fatalf("Apply returned %+v", got)
	}
	if e := st.Nodes[0][0]; e.DAG == nil || e.DAG.BoundNs != meta.BoundNs {
		t.Fatalf("entry lost DAG meta: %+v", e)
	}
	if st.Counters.Placed != 1 {
		t.Fatalf("counters = %+v", st.Counters)
	}
	// Removal resolves and clears it like any other placement.
	rm := Record{Kind: KindRemove, Origin: OriginClient, Node: 0, ID: "dag-a"}
	if got := st.Resolve(rm); !reflect.DeepEqual(got, r.Tasks) {
		t.Fatalf("Resolve = %+v", got)
	}
	st.Apply(rm)
	if len(st.Nodes[0]) != 0 || st.Counters.Removed != 1 {
		t.Fatalf("post-remove state: %+v", st)
	}
}

func TestReplayFailsLoudOnUnknownKind(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, NumNodes: 1, Spec: testSpec}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.Replay(alwaysApply); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if err := s.LogBatch([]Record{{Kind: KindPlace, Origin: OriginClient, Node: 0, ID: "a", Tasks: taskSet(1, 100_000)}}); err != nil {
		t.Fatalf("LogBatch: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A newer writer appends a record kind this build has never heard of.
	future, err := Record{Kind: KindPlace, Origin: OriginClient, Node: 0, ID: "b", Tasks: taskSet(1, 100_000)}.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	future[0] = 7
	l, _, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	if _, err := l.Append(future); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("wal close: %v", err)
	}

	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	err = s2.Replay(alwaysApply)
	var unknown *UnknownKindError
	if !errors.As(err, &unknown) {
		t.Fatalf("replay of unknown kind: err = %v, want *UnknownKindError", err)
	}
	if unknown.Kind != 7 {
		t.Fatalf("UnknownKindError.Kind = %d, want 7", unknown.Kind)
	}
}
