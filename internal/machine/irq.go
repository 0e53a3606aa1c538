package machine

import "hrtsched/internal/sim"

// DeviceSource is one external interrupt source (a NIC, a disk controller).
// Its interrupts are steerable to any CPU (Section 3.5); the default
// configuration steers everything to CPU 0, the interrupt-laden partition.
type DeviceSource struct {
	Name            string
	Vector          Vector
	MeanGapCycles   int64 // exponential inter-arrival mean; 0 = manual only
	HandlerCycles   int64 // bounded handler cost, advertised to admission
	target          int
	ctl             *IRQController
	rng             sim.Rand
	ev              *sim.Event // persistent arrival event, re-armed per gap
	raised, dropped int64
	running         bool
}

// Target returns the CPU this source is currently steered to.
func (d *DeviceSource) Target() int { return d.target }

// Raised returns the number of interrupts delivered so far.
func (d *DeviceSource) Raised() int64 { return d.raised }

// Raise delivers one interrupt from this source now.
func (d *DeviceSource) Raise() {
	d.raised++
	d.ctl.mach.CPU(d.target).RaiseInterrupt(d.Vector)
}

func (d *DeviceSource) schedule() {
	if d.MeanGapCycles <= 0 || d.running {
		return
	}
	d.running = true
	if d.ev == nil {
		// One persistent event carries the whole arrival process: each
		// delivery re-arms it in place for the next exponential gap, so a
		// device storm costs zero allocations per interrupt.
		d.ev = d.ctl.mach.Eng.NewEvent(sim.Hard, func(now sim.Time) {
			if !d.running {
				return
			}
			d.Raise()
			d.armNext()
		})
	}
	d.armNext()
}

func (d *DeviceSource) armNext() {
	gap := sim.Duration(float64(d.MeanGapCycles) * d.rng.ExpFloat64())
	if gap < 1 {
		gap = 1
	}
	d.ev.RescheduleAfter(gap)
}

// Stop halts autonomous interrupt generation from this source.
func (d *DeviceSource) Stop() { d.running = false }

// IRQController owns the machine's external interrupt sources and their
// steering. CPUs outside the interrupt-laden partition never see device
// interrupts at all — they are "interrupt-free" (Figure 1).
type IRQController struct {
	mach    *Machine
	rng     sim.Rand
	sources []*DeviceSource
	nextVec Vector
	laden   map[int]bool // CPUs in the interrupt-laden partition
}

// reset reseeds the controller from the machine's root stream, forgets
// every device source and restores the default partition. The source
// objects (with their persistent arrival events, idle after the engine's
// reset) and the partition map are kept for reuse.
func (c *IRQController) reset() {
	c.mach.rng.SplitInto(&c.rng)
	c.sources = c.sources[:0]
	c.nextVec = VecDeviceBase
	clear(c.laden)
	c.laden[0] = true // default: CPU 0 takes all devices
}

// AddDevice registers a device source steered to the first CPU of the
// interrupt-laden partition and, if meanGapCycles > 0, starts autonomous
// interrupt generation.
func (c *IRQController) AddDevice(name string, meanGapCycles, handlerCycles int64) *DeviceSource {
	// A source left over from before the last reset is reused in place,
	// arrival event included.
	var d *DeviceSource
	if n := len(c.sources); n < cap(c.sources) {
		d = c.sources[:n+1][n]
	}
	if d == nil {
		d = new(DeviceSource)
	}
	*d = DeviceSource{
		Name:          name,
		Vector:        c.nextVec,
		MeanGapCycles: meanGapCycles,
		HandlerCycles: handlerCycles,
		target:        c.firstLaden(),
		ctl:           c,
		ev:            d.ev,
	}
	c.rng.SplitInto(&d.rng)
	c.nextVec++
	if c.nextVec.Class() >= VecKick.Class() {
		panic("machine: too many device vectors")
	}
	c.sources = append(c.sources, d)
	d.schedule()
	return d
}

// Steer retargets a device source to the given CPU and adds that CPU to
// the interrupt-laden partition.
func (c *IRQController) Steer(d *DeviceSource, cpu int) {
	if cpu < 0 || cpu >= c.mach.NumCPUs() {
		panic("machine: steering to nonexistent CPU")
	}
	d.target = cpu
	c.laden[cpu] = true
}

// SetLadenPartition declares the exact set of CPUs that receive external
// interrupts and re-steers every source to the first of them.
func (c *IRQController) SetLadenPartition(cpus []int) {
	if len(cpus) == 0 {
		panic("machine: interrupt-laden partition cannot be empty")
	}
	clear(c.laden)
	for _, i := range cpus {
		c.laden[i] = true
	}
	first := c.firstLaden()
	for _, d := range c.sources {
		d.target = first
	}
}

// InterruptFree reports whether the CPU is in the interrupt-free partition.
func (c *IRQController) InterruptFree(cpu int) bool { return !c.laden[cpu] }

// Sources returns the registered device sources.
func (c *IRQController) Sources() []*DeviceSource { return c.sources }

// SourceByVector returns the device that owns vector v, or nil.
func (c *IRQController) SourceByVector(v Vector) *DeviceSource {
	for _, d := range c.sources {
		if d.Vector == v {
			return d
		}
	}
	return nil
}

func (c *IRQController) firstLaden() int {
	best := -1
	for i := range c.laden {
		if best == -1 || i < best {
			best = i
		}
	}
	if best == -1 {
		return 0
	}
	return best
}
