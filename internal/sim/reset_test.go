package sim

import "testing"

// TestEngineResetMatchesNew: a used engine, reset, runs a schedule exactly
// as a new engine does — same firing times and order — while queued
// pooled events return to its free list and persistent events go idle.
func TestEngineResetMatchesNew(t *testing.T) {
	run := func(e *Engine) []Time {
		var fired []Time
		rec := func(now Time) { fired = append(fired, now) }
		for _, at := range []Time{30, 10, 20} {
			e.Schedule(at, Soft, rec)
			e.Schedule(at, Hard, rec)
		}
		e.Freeze(5)
		e.RunAll(100)
		return append(fired, Time(e.Steps()), Time(e.MissingTime()))
	}

	used := NewEngine()
	persistent := used.NewEvent(Hard, func(Time) { t.Fatal("idle persistent event fired") })
	persistent.Reschedule(50)
	queued := used.Schedule(60, Soft, func(Time) { t.Fatal("queued pooled event fired after reset") })
	used.Run(25)
	used.Reset()

	if used.Now() != 0 || used.Steps() != 0 || used.Pending() != 0 || used.MissingTime() != 0 || used.FrozenUntil() != 0 {
		t.Fatalf("reset engine: now=%d steps=%d pending=%d missing=%d frozen=%d",
			used.Now(), used.Steps(), used.Pending(), used.MissingTime(), used.FrozenUntil())
	}
	if persistent.Armed() {
		t.Fatal("persistent event still armed after reset")
	}
	if again := used.Schedule(1, Hard, func(Time) {}); again != queued {
		t.Fatal("queued pooled event was not returned to the free list")
	}
	used.Reset()

	got, want := run(used), run(NewEngine())
	if len(got) != len(want) {
		t.Fatalf("reset engine fired %v, new engine %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reset engine fired %v, new engine %v", got, want)
		}
	}
	persistent.Reschedule(used.Now() + 1) // an idle persistent event re-arms
	if !persistent.Armed() {
		t.Fatal("persistent event did not re-arm after reset")
	}
}

// TestSplitIntoMatchesSplit: SplitInto reseeds a stored stream with
// exactly the stream Split returns, consuming the same draw, and Seed
// restarts a stream as NewRand does.
func TestSplitIntoMatchesSplit(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	var dst Rand
	dst.NormFloat64() // leave a spare deviate behind; SplitInto must drop it
	for i := 0; i < 4; i++ {
		want := a.Split()
		b.SplitInto(&dst)
		for j := 0; j < 8; j++ {
			if g, w := dst.NormFloat64(), want.NormFloat64(); g != w {
				t.Fatalf("split %d draw %d: SplitInto stream %v, Split stream %v", i, j, g, w)
			}
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("SplitInto and Split consumed different draws from the parent")
	}
	dst.Seed(7)
	if fresh := NewRand(7); dst.Uint64() != fresh.Uint64() {
		t.Fatal("Seed does not restart the stream NewRand returns")
	}
}
