package mem

import "fmt"

// NUMA is the zone-selected allocation layer: one buddy allocator per NUMA
// zone, with allocations placed explicitly by target zone — for threads
// bound to specific CPUs, "essential thread and scheduler state is
// guaranteed to always be in the most desirable zone" (Section 2).
type NUMA struct {
	zones []*Zone
	// cpuZone maps each CPU to its nearest zone.
	cpuZone []int
}

// NewNUMA builds a NUMA layout. cpuZone[i] gives the zone index nearest to
// CPU i.
func NewNUMA(zones []*Zone, cpuZone []int) (*NUMA, error) {
	if len(zones) == 0 {
		return nil, fmt.Errorf("%w: no zones", ErrBadRequest)
	}
	for cpu, zi := range cpuZone {
		if zi < 0 || zi >= len(zones) {
			return nil, fmt.Errorf("%w: CPU %d maps to zone %d of %d",
				ErrBadRequest, cpu, zi, len(zones))
		}
	}
	return &NUMA{zones: zones, cpuZone: cpuZone}, nil
}

// PhiLayout models the Xeon Phi 7210's two-tier memory: 16 GB of MCDRAM
// tightly coupled to the cores and 96 GB of conventional DRAM. Every CPU's
// preferred zone is MCDRAM.
func PhiLayout(ncpus int) (*NUMA, error) {
	mcdram, err := NewZone("mcdram", 16<<30, 16<<30, 4096)
	if err != nil {
		return nil, err
	}
	dram, err := NewZone("dram", 128<<30, 128<<30, 4096)
	if err != nil {
		return nil, err
	}
	cpuZone := make([]int, ncpus)
	return NewNUMA([]*Zone{mcdram, dram}, cpuZone)
}

// Reset frees every allocation in every zone (see Zone.Reset).
func (n *NUMA) Reset() {
	for _, z := range n.zones {
		z.Reset()
	}
}

// NumCPUs returns the number of CPUs the layout maps to zones.
func (n *NUMA) NumCPUs() int { return len(n.cpuZone) }

// Zones returns the zones.
func (n *NUMA) Zones() []*Zone { return n.zones }

// Zone returns zone i.
func (n *NUMA) Zone(i int) *Zone { return n.zones[i] }

// ZoneFor returns the zone index nearest to cpu.
func (n *NUMA) ZoneFor(cpu int) int {
	if cpu < 0 || cpu >= len(n.cpuZone) {
		return 0
	}
	return n.cpuZone[cpu]
}

// AllocOn allocates size bytes from the given zone only; it fails rather
// than silently falling back, keeping placement explicit.
func (n *NUMA) AllocOn(zone int, size uint64) (uint64, error) {
	if zone < 0 || zone >= len(n.zones) {
		return 0, fmt.Errorf("%w: zone %d", ErrBadRequest, zone)
	}
	return n.zones[zone].Alloc(size)
}

// AllocNear allocates from the zone nearest to cpu, falling back to other
// zones in index order only if the preferred zone is exhausted (explicit
// spill, as a kernel would do for non-essential state).
func (n *NUMA) AllocNear(cpu int, size uint64) (uint64, int, error) {
	pref := n.ZoneFor(cpu)
	if addr, err := n.zones[pref].Alloc(size); err == nil {
		return addr, pref, nil
	}
	for i, z := range n.zones {
		if i == pref {
			continue
		}
		if addr, err := z.Alloc(size); err == nil {
			return addr, i, nil
		}
	}
	return 0, -1, fmt.Errorf("%w: %d bytes near CPU %d", ErrOutOfMemory, size, cpu)
}

// Free releases an address by locating its owning zone.
func (n *NUMA) Free(addr uint64) error {
	for _, z := range n.zones {
		if addr >= z.base && addr < z.base+z.size {
			return z.Free(addr)
		}
	}
	return fmt.Errorf("%w: %#x in no zone", ErrBadFree, addr)
}
