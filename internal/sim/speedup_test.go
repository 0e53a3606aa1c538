package sim

import "testing"

// Gated acceptance bars for the engine rewrite. The timed freeze-storm
// ratio against the preserved legacy engine lives in perfgate_test.go;
// the allocation gate below counts, so it stays in tier-1.

// TestRearmChurnZeroAllocsPerOp gates the other half of the rewrite: the
// steady-state timer re-arm (Cancel + Reschedule of a persistent event)
// and the pooled schedule/fire cycle must not allocate. The loop bodies
// and setup are those of BenchmarkEngineRearm and BenchmarkEngineThroughput.
func TestRearmChurnZeroAllocsPerOp(t *testing.T) {
	const runs = 10_000

	e := NewEngine()
	ev := e.NewEvent(Hard, func(Time) {})
	ev.Reschedule(1 << 39)
	for i := 0; i < 1024; i++ {
		e.Schedule(Time(1<<40+i), Hard, func(Time) {})
	}
	i := 0
	if a := testing.AllocsPerRun(runs, func() {
		ev.Cancel()
		ev.Reschedule(Time(1<<39) + Time(i&1023))
		i++
	}); a != 0 {
		t.Fatalf("timer re-arm allocates %v/op, want 0", a)
	}

	f := NewEngine()
	var next func(Time)
	next = func(Time) { f.After(10, Soft, next) }
	f.After(10, Soft, next)
	if a := testing.AllocsPerRun(runs, func() { f.Step() }); a != 0 {
		t.Fatalf("pooled schedule/fire cycle allocates %v/op, want 0", a)
	}
}
