package mem

import (
	"errors"
	"testing"
	"testing/quick"

	"hrtsched/internal/sim"
)

func mkZone(t *testing.T, size, minBlock uint64) *Zone {
	t.Helper()
	z, err := NewZone("test", 0, size, minBlock)
	if err != nil {
		t.Fatal(err)
	}
	return z
}

func TestAllocFreeRoundtrip(t *testing.T) {
	z := mkZone(t, 1<<20, 64)
	addr, err := z.Alloc(1000)
	if err != nil {
		t.Fatal(err)
	}
	if z.BlockSize(addr) != 1024 {
		t.Fatalf("block size = %d, want 1024 (rounded up)", z.BlockSize(addr))
	}
	if err := z.Free(addr); err != nil {
		t.Fatal(err)
	}
	if z.BytesAllocated != 0 {
		t.Fatalf("bytes allocated = %d after free", z.BytesAllocated)
	}
	// Full coalescing: the next max-size alloc must succeed.
	if _, err := z.Alloc(1 << 20); err != nil {
		t.Fatalf("zone did not coalesce back to full: %v", err)
	}
}

// TestZoneResetMatchesNew: a used zone, reset, holds no allocation and
// hands out the same addresses, with the same statistics, as a new zone.
func TestZoneResetMatchesNew(t *testing.T) {
	sizes := []uint64{1000, 64, 4096, 300, 20_000}
	allocAll := func(z *Zone) []uint64 {
		var addrs []uint64
		for _, n := range sizes {
			a, err := z.Alloc(n)
			if err != nil {
				t.Fatal(err)
			}
			addrs = append(addrs, a)
		}
		return addrs
	}
	used := mkZone(t, 1<<16, 64)
	for _, a := range allocAll(used)[1:] {
		if err := used.Free(a); err != nil {
			t.Fatal(err)
		}
	}
	used.Reset()
	if err := used.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if used.LiveBlocks() != 0 || used.FreeBlocks() != 1 || used.Allocs != 0 || used.PeakAllocated != 0 {
		t.Fatalf("reset zone: live=%d free=%d allocs=%d peak=%d",
			used.LiveBlocks(), used.FreeBlocks(), used.Allocs, used.PeakAllocated)
	}
	fresh := mkZone(t, 1<<16, 64)
	got, want := allocAll(used), allocAll(fresh)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reset zone hands out %v, new zone %v", got, want)
		}
	}
	if used.SplitSteps != fresh.SplitSteps || used.BytesAllocated != fresh.BytesAllocated {
		t.Fatalf("statistics differ: reset %+v, new %+v", *used, *fresh)
	}
}

func TestAllocAlignment(t *testing.T) {
	z := mkZone(t, 1<<16, 64)
	for _, n := range []uint64{1, 64, 65, 100, 128, 4096, 5000} {
		addr, err := z.Alloc(n)
		if err != nil {
			t.Fatal(err)
		}
		size := z.BlockSize(addr)
		if size < n {
			t.Fatalf("block %d smaller than request %d", size, n)
		}
		if addr%size != 0 {
			t.Fatalf("addr %#x not aligned to block size %d", addr, size)
		}
	}
}

func TestExhaustionAndRecovery(t *testing.T) {
	z := mkZone(t, 1<<12, 64) // 4 KiB, 64 blocks of 64 B
	var addrs []uint64
	for {
		a, err := z.Alloc(64)
		if err != nil {
			if !errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("wrong error: %v", err)
			}
			break
		}
		addrs = append(addrs, a)
	}
	if len(addrs) != 64 {
		t.Fatalf("allocated %d blocks of 64, want 64", len(addrs))
	}
	for _, a := range addrs {
		if err := z.Free(a); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := z.Alloc(1 << 12); err != nil {
		t.Fatalf("not fully coalesced after freeing everything: %v", err)
	}
}

func TestBadFrees(t *testing.T) {
	z := mkZone(t, 1<<16, 64)
	addr, _ := z.Alloc(128)
	if err := z.Free(addr + 64); err == nil {
		t.Fatalf("interior free accepted")
	}
	if err := z.Free(1 << 30); err == nil {
		t.Fatalf("out-of-zone free accepted")
	}
	if err := z.Free(addr); err != nil {
		t.Fatal(err)
	}
	if err := z.Free(addr); err == nil {
		t.Fatalf("double free accepted")
	}
}

func TestDeterministicBoundedPathLength(t *testing.T) {
	// The hard real-time property: no operation ever takes more steps than
	// the zone has levels.
	z := mkZone(t, 1<<24, 64)
	rng := sim.NewRand(5)
	var live []uint64
	for i := 0; i < 20000; i++ {
		if len(live) == 0 || (rng.Float64() < 0.55 && len(live) < 4000) {
			n := uint64(rng.Range(1, 64*1024))
			if a, err := z.Alloc(n); err == nil {
				live = append(live, a)
			}
		} else {
			k := rng.Intn(len(live))
			if err := z.Free(live[k]); err != nil {
				t.Fatal(err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	if z.WorstPathSteps > int64(z.Levels()) {
		t.Fatalf("path length %d exceeds level bound %d", z.WorstPathSteps, z.Levels())
	}
	if z.Allocs < 8000 {
		t.Fatalf("allocs = %d", z.Allocs)
	}
}

// Property: after any interleaving of allocs and frees, free blocks and
// live allocations tile the zone exactly with no overlap.
func TestPropertyZoneInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		z, err := NewZone("p", 0, 1<<16, 64)
		if err != nil {
			return false
		}
		var live []uint64
		for _, op := range ops {
			if op%3 != 0 || len(live) == 0 {
				n := uint64(op%2048) + 1
				if a, aerr := z.Alloc(n); aerr == nil {
					live = append(live, a)
				}
			} else {
				k := int(op) % len(live)
				if z.Free(live[k]) != nil {
					return false
				}
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if z.CheckInvariants() != nil {
				return false
			}
		}
		for _, a := range live {
			if z.Free(a) != nil {
				return false
			}
		}
		return z.CheckInvariants() == nil && z.BytesAllocated == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestZoneConstructionValidation(t *testing.T) {
	for _, c := range []struct{ base, size, min uint64 }{
		{0, 1000, 64},      // size not power of two
		{0, 1 << 12, 48},   // min not power of two
		{0, 64, 128},       // min > size
		{100, 1 << 12, 64}, // base misaligned
	} {
		if _, err := NewZone("bad", c.base, c.size, c.min); err == nil {
			t.Fatalf("accepted bad zone %+v", c)
		}
	}
}

func TestNUMAPlacement(t *testing.T) {
	n, err := PhiLayout(8)
	if err != nil {
		t.Fatal(err)
	}
	addr, zone, err := n.AllocNear(3, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if zone != 0 || n.Zone(0).Name() != "mcdram" {
		t.Fatalf("near allocation not in MCDRAM (zone %d)", zone)
	}
	if err := n.Free(addr); err != nil {
		t.Fatal(err)
	}
	// Explicit placement on DRAM.
	a2, err := n.AllocOn(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if n.Zone(1).BytesAllocated != 1<<20 {
		t.Fatalf("DRAM accounting wrong")
	}
	if err := n.Free(a2); err != nil {
		t.Fatal(err)
	}
}

func TestNUMASpill(t *testing.T) {
	small, _ := NewZone("near", 0, 1<<12, 64)
	big, _ := NewZone("far", 1<<20, 1<<20, 64)
	n, err := NewNUMA([]*Zone{small, big}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	// Fill the near zone.
	if _, _, err := n.AllocNear(0, 1<<12); err != nil {
		t.Fatal(err)
	}
	// Next near allocation must spill to the far zone.
	_, zone, err := n.AllocNear(0, 1<<12)
	if err != nil || zone != 1 {
		t.Fatalf("spill failed: zone=%d err=%v", zone, err)
	}
	// AllocOn never spills.
	if _, err := n.AllocOn(0, 64); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("AllocOn spilled or wrong error: %v", err)
	}
}
