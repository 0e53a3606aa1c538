// Package mem reproduces the memory-management substrate Nautilus builds
// its predictability on (Section 2): all memory management is explicit,
// and allocations are done with buddy-system allocators selected by target
// NUMA zone. The property that matters for a hard real-time kernel is that
// every allocator operation has a deterministic, bounded path length — at
// most one split/merge step per order level — which this implementation
// makes observable through per-operation step counters.
package mem

import (
	"errors"
	"fmt"
	"math/bits"
)

// Errors returned by the allocator.
var (
	ErrOutOfMemory = errors.New("mem: zone exhausted")
	ErrBadFree     = errors.New("mem: freeing unallocated or misaligned address")
	ErrBadRequest  = errors.New("mem: malformed request")
)

// Zone is one contiguous physical region managed by a buddy allocator.
type Zone struct {
	name     string
	base     uint64
	size     uint64
	minOrder uint // log2 of the smallest block
	maxOrder uint // log2 of the whole zone

	// free[o] holds offsets of free blocks of order o (LIFO). It is built
	// on first use (see materialize); until then the zone is one free block.
	free [][]uint64
	// allocated maps offset -> order for live allocations; nil until the
	// first allocation.
	allocated map[uint64]uint

	// Statistics.
	Allocs, Frees  int64
	SplitSteps     int64
	MergeSteps     int64
	WorstPathSteps int64
	BytesAllocated uint64
	PeakAllocated  uint64
	FailedAllocs   int64
}

// NewZone creates a zone of the given size (a power of two) starting at
// base, with the given minimum block size (also a power of two).
func NewZone(name string, base, size, minBlock uint64) (*Zone, error) {
	if size == 0 || size&(size-1) != 0 {
		return nil, fmt.Errorf("%w: zone size %d not a power of two", ErrBadRequest, size)
	}
	if minBlock == 0 || minBlock&(minBlock-1) != 0 || minBlock > size {
		return nil, fmt.Errorf("%w: min block %d", ErrBadRequest, minBlock)
	}
	if base%size != 0 {
		return nil, fmt.Errorf("%w: base %d not aligned to zone size", ErrBadRequest, base)
	}
	return &Zone{
		name:     name,
		base:     base,
		size:     size,
		minOrder: uint(bits.TrailingZeros64(minBlock)),
		maxOrder: uint(bits.TrailingZeros64(size)),
	}, nil
}

// materialize builds the free lists and the allocation map on first use,
// so a zone nobody allocates from (a kernel's DRAM spill zone, usually)
// costs only its header. Every usable order's list starts with room for
// one block, carved from a single backing array: a split pushes one buddy
// per order, so the first allocation costs no allocation per level. A list
// that outgrows its slot reallocates on append like any other slice.
func (z *Zone) materialize() {
	if z.free != nil {
		return
	}
	z.free = make([][]uint64, z.maxOrder+1)
	slots := make([]uint64, z.maxOrder+1-z.minOrder)
	for o := z.minOrder; o <= z.maxOrder; o++ {
		i := o - z.minOrder
		z.free[o] = slots[i : i : i+1]
	}
	z.free[z.maxOrder] = append(z.free[z.maxOrder], 0)
	z.allocated = map[uint64]uint{}
}

// Reset frees every block and zeroes the statistics, returning the zone to
// the state NewZone leaves it in while keeping its free-list storage and
// allocation map. Addresses handed out before the reset are invalid.
func (z *Zone) Reset() {
	if z.free != nil {
		for o := range z.free {
			z.free[o] = z.free[o][:0]
		}
		z.free[z.maxOrder] = append(z.free[z.maxOrder], 0)
		clear(z.allocated)
	}
	*z = Zone{
		name:      z.name,
		base:      z.base,
		size:      z.size,
		minOrder:  z.minOrder,
		maxOrder:  z.maxOrder,
		free:      z.free,
		allocated: z.allocated,
	}
}

// Name returns the zone name.
func (z *Zone) Name() string { return z.name }

// Size returns the zone size in bytes.
func (z *Zone) Size() uint64 { return z.size }

// FreeBytes returns the total free space.
func (z *Zone) FreeBytes() uint64 { return z.size - z.BytesAllocated }

// Levels returns the number of order levels — the hard bound on any
// operation's path length.
func (z *Zone) Levels() int { return int(z.maxOrder - z.minOrder + 1) }

// orderFor returns the smallest order whose block fits n bytes.
func (z *Zone) orderFor(n uint64) uint {
	if n == 0 {
		n = 1
	}
	o := uint(64 - bits.LeadingZeros64(n-1))
	if n&(n-1) == 0 {
		o = uint(bits.TrailingZeros64(n))
	}
	if o < z.minOrder {
		o = z.minOrder
	}
	return o
}

// Alloc returns the address of a block of at least n bytes. The number of
// list operations is bounded by the zone's level count.
func (z *Zone) Alloc(n uint64) (uint64, error) {
	if n == 0 || n > z.size {
		z.FailedAllocs++
		return 0, fmt.Errorf("%w: %d bytes from %q", ErrBadRequest, n, z.name)
	}
	want := z.orderFor(n)
	if want > z.maxOrder {
		z.FailedAllocs++
		return 0, fmt.Errorf("%w: %d bytes from %q", ErrOutOfMemory, n, z.name)
	}
	z.materialize()
	// Find the smallest populated order >= want.
	o := want
	for o <= z.maxOrder && len(z.free[o]) == 0 {
		o++
	}
	if o > z.maxOrder {
		z.FailedAllocs++
		return 0, fmt.Errorf("%w: %d bytes from %q", ErrOutOfMemory, n, z.name)
	}
	// Pop and split down to the wanted order.
	off := z.free[o][len(z.free[o])-1]
	z.free[o] = z.free[o][:len(z.free[o])-1]
	steps := int64(0)
	for o > want {
		o--
		steps++
		buddy := off + (uint64(1) << o)
		z.free[o] = append(z.free[o], buddy)
	}
	z.SplitSteps += steps
	if steps > z.WorstPathSteps {
		z.WorstPathSteps = steps
	}
	z.allocated[off] = want
	z.Allocs++
	z.BytesAllocated += uint64(1) << want
	if z.BytesAllocated > z.PeakAllocated {
		z.PeakAllocated = z.BytesAllocated
	}
	return z.base + off, nil
}

// Free releases a previously allocated address, coalescing buddies. The
// number of merge steps is bounded by the zone's level count.
func (z *Zone) Free(addr uint64) error {
	if addr < z.base || addr >= z.base+z.size {
		return fmt.Errorf("%w: %#x outside zone %q", ErrBadFree, addr, z.name)
	}
	off := addr - z.base
	order, ok := z.allocated[off]
	if !ok {
		return fmt.Errorf("%w: %#x in zone %q", ErrBadFree, addr, z.name)
	}
	delete(z.allocated, off)
	z.BytesAllocated -= uint64(1) << order
	z.Frees++

	steps := int64(0)
	for order < z.maxOrder {
		buddy := off ^ (uint64(1) << order)
		// The buddy must be free at exactly this order to coalesce.
		idx := -1
		for i, b := range z.free[order] {
			if b == buddy {
				idx = i
				break
			}
		}
		if idx < 0 {
			break
		}
		last := len(z.free[order]) - 1
		z.free[order][idx] = z.free[order][last]
		z.free[order] = z.free[order][:last]
		if buddy < off {
			off = buddy
		}
		order++
		steps++
	}
	z.MergeSteps += steps
	if steps > z.WorstPathSteps {
		z.WorstPathSteps = steps
	}
	z.free[order] = append(z.free[order], off)
	return nil
}

// LiveBlocks returns the number of live allocations.
func (z *Zone) LiveBlocks() int { return len(z.allocated) }

// FreeBlocks returns the number of free blocks across all orders (one for
// a zone nothing has been allocated from).
func (z *Zone) FreeBlocks() int {
	if z.free == nil {
		return 1
	}
	n := 0
	for _, list := range z.free {
		n += len(list)
	}
	return n
}

// BlockSize returns the usable size of the block at addr, or 0 if addr is
// not a live allocation.
func (z *Zone) BlockSize(addr uint64) uint64 {
	if o, ok := z.allocated[addr-z.base]; ok {
		return uint64(1) << o
	}
	return 0
}

// CheckInvariants verifies the zone's structural invariants: free blocks
// and live allocations tile the zone exactly, without overlap. Intended
// for tests.
func (z *Zone) CheckInvariants() error {
	z.materialize()
	covered := uint64(0)
	type span struct{ off, size uint64 }
	var spans []span
	for o, list := range z.free {
		for _, off := range list {
			spans = append(spans, span{off, uint64(1) << uint(o)})
		}
	}
	for off, o := range z.allocated {
		spans = append(spans, span{off, uint64(1) << o})
	}
	seen := map[uint64]bool{}
	for _, s := range spans {
		if s.off%s.size != 0 {
			return fmt.Errorf("mem: block %#x misaligned for size %d", s.off, s.size)
		}
		for b := s.off; b < s.off+s.size; b += uint64(1) << z.minOrder {
			if seen[b] {
				return fmt.Errorf("mem: overlap at offset %#x", b)
			}
			seen[b] = true
		}
		covered += s.size
	}
	if covered != z.size {
		return fmt.Errorf("mem: coverage %d of %d bytes", covered, z.size)
	}
	return nil
}
