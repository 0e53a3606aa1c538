package durable

import (
	"testing"

	"hrtsched/internal/plan"
)

func replTestRecord(kind Kind, node int, id string) Record {
	r := Record{Kind: kind, Origin: OriginClient, Node: node, ID: id}
	if kind == KindPlace {
		r.Tasks = plan.TaskSet{{PeriodNs: 1000, SliceNs: 100}}
	}
	return r
}

func TestReplStoreApplyCommittedAndSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, NumNodes: 2, Spec: testSpec, SnapshotEveryRecords: 4}
	s, err := OpenReplicated(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if got := s.Recovery().SnapshotLSN; got != 0 {
		t.Fatalf("fresh recovery snapshot LSN = %d", got)
	}
	for i, id := range []string{"a", "b", "c"} {
		r := replTestRecord(KindPlace, i%2, id)
		if !s.Peek(r) {
			t.Fatalf("peek %q refused", id)
		}
		if err := s.ApplyCommitted(uint64(i+1), 3, 32, r); err != nil {
			t.Fatalf("apply %q: %v", id, err)
		}
	}
	// Replay overlap (same LSN again) is a no-op, not a divergence.
	if err := s.ApplyCommitted(3, 3, 32, replTestRecord(KindPlace, 0, "c")); err != nil {
		t.Fatalf("re-apply committed: %v", err)
	}
	if got := s.AppliedLSN(); got != 3 {
		t.Fatalf("applied LSN = %d, want 3", got)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Reopen: the final snapshot restores the state and carries the term.
	s2, err := OpenReplicated(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if rec.SnapshotLSN != 3 || rec.SnapshotTerm != 3 {
		t.Fatalf("recovery = %+v, want LSN 3 term 3", rec)
	}
	st := s2.RecoveredState()
	if len(st.Placements) != 3 {
		t.Fatalf("restored %d placements, want 3", len(st.Placements))
	}
	// Removing a placement that exists fits; a phantom does not.
	if !s2.Peek(replTestRecord(KindRemove, 0, "a")) {
		t.Fatalf("remove of restored placement refused")
	}
	if s2.Peek(replTestRecord(KindRemove, 0, "zzz")) {
		t.Fatalf("remove of phantom accepted")
	}
}

func TestReplStoreDegradesOnDivergence(t *testing.T) {
	s, err := OpenReplicated(Config{Dir: t.TempDir(), NumNodes: 1, Spec: testSpec})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	// A committed remove for a record the shadow never saw is divergence.
	if err := s.ApplyCommitted(1, 1, 16, replTestRecord(KindRemove, 0, "ghost")); err == nil {
		t.Fatalf("divergent record applied cleanly")
	}
	if s.DegradedErr() == nil {
		t.Fatalf("store not degraded after divergence")
	}
	if err := s.ApplyCommitted(2, 1, 16, replTestRecord(KindPlace, 0, "x")); err == nil {
		t.Fatalf("degraded store accepted a record")
	}
}

func TestReplStoreResolveRebuildsTasks(t *testing.T) {
	s, err := OpenReplicated(Config{Dir: t.TempDir(), NumNodes: 1, Spec: testSpec})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	r := Record{Kind: KindPlace, Origin: OriginClient, Node: 0, ID: "t", Tasks: plan.TaskSet{
		{PeriodNs: 1000, SliceNs: 250}, {PeriodNs: 2000, SliceNs: 100},
	}}
	ts := s.Resolve(r)
	if len(ts) != 2 || ts[0] != (plan.Task{PeriodNs: 1000, SliceNs: 250}) {
		t.Fatalf("resolved tasks = %+v", ts)
	}
}
