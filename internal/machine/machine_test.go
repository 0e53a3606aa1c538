package machine

import (
	"testing"
	"testing/quick"

	"hrtsched/internal/sim"
)

func TestNewMachineShape(t *testing.T) {
	m := New(PhiKNL(), 1)
	if m.NumCPUs() != 256 {
		t.Fatalf("CPUs = %d", m.NumCPUs())
	}
	if m.CPU(0).BootAt() != 0 || m.CPU(0).TSCOffset() != 0 {
		t.Fatalf("CPU 0 must define the reference clock")
	}
	seenOffset := false
	for i := 1; i < m.NumCPUs(); i++ {
		if m.CPU(i).TSCOffset() != 0 {
			seenOffset = true
		}
	}
	if !seenOffset {
		t.Fatalf("no raw TSC skew generated")
	}
}

func TestMachineDeterministicFromSeed(t *testing.T) {
	a, b := New(PhiKNL(), 9), New(PhiKNL(), 9)
	for i := 0; i < a.NumCPUs(); i++ {
		if a.CPU(i).TSCOffset() != b.CPU(i).TSCOffset() ||
			a.CPU(i).BootAt() != b.CPU(i).BootAt() {
			t.Fatalf("machines from same seed differ at CPU %d", i)
		}
	}
}

func TestTSCReadWrite(t *testing.T) {
	m := New(PhiKNL().Scaled(2), 1)
	c := m.CPU(1)
	c.WriteTSC(12345)
	if got := c.ReadTSC(); got != 12345 {
		t.Fatalf("TSC after write = %d", got)
	}
	m.Eng.Schedule(100, sim.Hard, func(sim.Time) {})
	m.Eng.RunAll(1)
	if got := c.ReadTSC(); got != 12445 {
		t.Fatalf("TSC did not advance with wall clock: %d", got)
	}
}

func TestTSCWriteRejectedWhenReadOnly(t *testing.T) {
	m := New(R415(), 1)
	defer func() {
		if recover() == nil {
			t.Fatalf("write to read-only TSC allowed")
		}
	}()
	m.CPU(1).WriteTSC(0)
}

func TestTSCCountsThroughSMI(t *testing.T) {
	spec := PhiKNL().Scaled(2)
	m := New(spec, 1)
	before := m.CPU(1).ReadTSC()
	m.SMI.InjectAt(10, 1000)
	m.Eng.Schedule(2000, sim.Hard, func(sim.Time) {})
	m.Eng.RunAll(10)
	after := m.CPU(1).ReadTSC()
	if after-before != 2000 {
		t.Fatalf("TSC advanced %d over 2000 wall cycles (constant TSC must keep counting)", after-before)
	}
	if m.SMI.TotalMissingTime() != 1000 {
		t.Fatalf("missing time = %d", m.SMI.TotalMissingTime())
	}
}

type sinkRec struct {
	vecs  []Vector
	times []sim.Time
}

func (s *sinkRec) HandleInterrupt(c *CPU, v Vector, now sim.Time) {
	s.vecs = append(s.vecs, v)
	s.times = append(s.times, now)
}

func TestOneShotTimerFires(t *testing.T) {
	m := New(PhiKNL().Scaled(1), 1)
	c := m.CPU(0)
	rec := &sinkRec{}
	c.SetSink(rec)
	c.SetOneShotTicks(10) // 10 ticks * 32 cycles
	m.Eng.RunAll(10)
	if len(rec.vecs) != 1 || rec.vecs[0] != VecTimer {
		t.Fatalf("timer did not deliver: %v", rec.vecs)
	}
	if rec.times[0] != 320 {
		t.Fatalf("timer at %d, want 320", rec.times[0])
	}
}

func TestOneShotNanosConservative(t *testing.T) {
	// The programmed countdown must never exceed the requested delay
	// (resolution mismatch => earlier invocation, never later).
	m := New(PhiKNL().Scaled(1), 1)
	c := m.CPU(0)
	rec := &sinkRec{}
	c.SetSink(rec)
	f := func(nsRaw uint16) bool {
		ns := int64(nsRaw) + 100
		rec.times = rec.times[:0]
		rec.vecs = rec.vecs[:0]
		start := m.Eng.Now()
		c.SetOneShotNanos(ns)
		m.Eng.RunAll(1 << 20)
		if len(rec.times) != 1 {
			return false
		}
		elapsed := rec.times[0] - start
		requested := sim.NanosToCycles(ns, m.Spec.FreqHz)
		return elapsed <= requested+sim.Time(m.Spec.APICTickCycles) && elapsed >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTimerReplacedNotDuplicated(t *testing.T) {
	m := New(PhiKNL().Scaled(1), 1)
	c := m.CPU(0)
	rec := &sinkRec{}
	c.SetSink(rec)
	c.SetOneShotTicks(100)
	c.SetOneShotTicks(5) // replaces
	m.Eng.RunAll(10)
	if len(rec.vecs) != 1 {
		t.Fatalf("%d timer interrupts, want 1", len(rec.vecs))
	}
}

func TestPriorityHoldsAndDrains(t *testing.T) {
	m := New(PhiKNL().Scaled(1), 1)
	c := m.CPU(0)
	rec := &sinkRec{}
	c.SetSink(rec)
	c.SetPriority(SchedPriority)
	dev := Vector(0x40) // class 4 < SchedPriority: held
	c.RaiseInterrupt(dev)
	c.RaiseInterrupt(dev) // duplicate merges (IRR semantics)
	if len(rec.vecs) != 0 || c.PendingCount() != 1 {
		t.Fatalf("device interrupt not held: delivered=%d pending=%d", len(rec.vecs), c.PendingCount())
	}
	c.RaiseInterrupt(VecTimer) // class 15 > 14: delivered through
	if len(rec.vecs) != 1 || rec.vecs[0] != VecTimer {
		t.Fatalf("scheduling interrupt blocked by priority")
	}
	c.SetPriority(0)
	if len(rec.vecs) != 2 || rec.vecs[1] != dev {
		t.Fatalf("held interrupt not drained on priority drop: %v", rec.vecs)
	}
}

func TestIPIDelivery(t *testing.T) {
	m := New(PhiKNL().Scaled(2), 1)
	rec := &sinkRec{}
	m.CPU(1).SetSink(rec)
	m.CPU(0).SendIPI(m.CPU(1), VecKick)
	m.Eng.RunAll(10)
	if len(rec.vecs) != 1 || rec.vecs[0] != VecKick {
		t.Fatalf("IPI not delivered: %v", rec.vecs)
	}
	if rec.times[0] != sim.Time(m.Spec.IPILatencyCycles) {
		t.Fatalf("IPI latency %d, want %d", rec.times[0], m.Spec.IPILatencyCycles)
	}
}

func TestDeviceSteering(t *testing.T) {
	m := New(PhiKNL().Scaled(4), 1)
	d := m.IRQ.AddDevice("nic", 0, 5000)
	if d.Target() != 0 {
		t.Fatalf("device not steered to CPU 0 by default")
	}
	if m.IRQ.InterruptFree(0) || !m.IRQ.InterruptFree(2) {
		t.Fatalf("default partition wrong")
	}
	rec := &sinkRec{}
	m.CPU(2).SetSink(rec)
	m.IRQ.Steer(d, 2)
	d.Raise()
	if len(rec.vecs) != 1 {
		t.Fatalf("steered interrupt not delivered to CPU 2")
	}
	if m.IRQ.InterruptFree(2) {
		t.Fatalf("CPU 2 should now be interrupt-laden")
	}
}

func TestDeviceAutonomousGeneration(t *testing.T) {
	m := New(PhiKNL().Scaled(1), 1)
	rec := &sinkRec{}
	m.CPU(0).SetSink(rec)
	d := m.IRQ.AddDevice("nic", 10_000, 1000)
	m.Eng.Run(1_000_000)
	if d.Raised() < 20 {
		t.Fatalf("autonomous device produced only %d interrupts", d.Raised())
	}
	if int64(len(rec.vecs)) != d.Raised() {
		t.Fatalf("delivered %d != raised %d", len(rec.vecs), d.Raised())
	}
	d.Stop()
	n := d.Raised()
	m.Eng.Run(2_000_000)
	if d.Raised() != n {
		t.Fatalf("device kept firing after Stop")
	}
}

func TestSMIRateAndObservation(t *testing.T) {
	spec := PhiKNL().Scaled(1)
	spec.MeanSMIGapCycles = 100_000
	spec.SMIDurationCycles = 1_000
	spec.SMIDurationJitter = 0
	m := New(spec, 5)
	var observed int
	m.SMI.Observe(func(at sim.Time, d sim.Duration) { observed++ })
	m.Eng.Schedule(10_000_000, sim.Hard, func(sim.Time) {})
	m.Eng.Run(10_000_000)
	if m.SMI.Count() < 50 || m.SMI.Count() > 200 {
		t.Fatalf("SMI count %d far from expected ~100", m.SMI.Count())
	}
	if int64(observed) != m.SMI.Count() {
		t.Fatalf("observer saw %d of %d", observed, m.SMI.Count())
	}
	if m.SMI.TotalMissingTime() != sim.Duration(m.SMI.Count()*1000) {
		t.Fatalf("missing time accounting off")
	}
}

func TestGPIOEdges(t *testing.T) {
	m := New(PhiKNL().Scaled(1), 1)
	g := m.GPIO
	g.SetPin(0, true)
	m.Eng.Schedule(100, sim.Hard, func(sim.Time) { g.SetPin(0, false) })
	m.Eng.Schedule(200, sim.Hard, func(sim.Time) { g.SetPin(1, true) })
	m.Eng.RunAll(10)
	edges := g.PinEdges(0)
	if len(edges) != 2 || !edges[0].High || edges[1].High {
		t.Fatalf("pin 0 edges wrong: %+v", edges)
	}
	if edges[1].At != 100 {
		t.Fatalf("falling edge at %d", edges[1].At)
	}
	if len(g.PinEdges(1)) != 1 {
		t.Fatalf("pin 1 edges wrong")
	}
	if g.Pins() != 0b10 {
		t.Fatalf("pin state %b", g.Pins())
	}
	// Writing the same value records nothing.
	n := len(g.Edges())
	g.Write(g.Pins())
	if len(g.Edges()) != n {
		t.Fatalf("no-op write recorded an edge")
	}
}

func TestOverheadJitterBounds(t *testing.T) {
	m := New(PhiKNL().Scaled(1), 1)
	rng := m.Rand()
	f := func(nomRaw uint16) bool {
		nom := int64(nomRaw) + 1
		v := m.OverheadJitter(rng, nom)
		span := nom * m.Spec.OverheadJitterPct / 100
		return v >= nom-span && v <= nom+span
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestSpecHelpers(t *testing.T) {
	s := PhiKNL()
	if s.TotalSchedCycles() != 1100+450+3200+1250 {
		t.Fatalf("TotalSchedCycles = %d", s.TotalSchedCycles())
	}
	// 6000 nominal + 12% jitter + one 32-cycle tick; R415 rounds 313.2 up.
	if w, r := s.WorstSchedCycles(), R415(); w != 6000+720+32 || r.WorstSchedCycles() != 2610+314+22 {
		t.Fatalf("WorstSchedCycles = %d (phi), %d (r415)", w, r.WorstSchedCycles())
	}
	if s.MicrosToCycles(10) != 13000 {
		t.Fatalf("10us = %d cycles, want 13000", s.MicrosToCycles(10))
	}
	if s.CyclesToNanos(13000) != 10000 {
		t.Fatalf("13000 cycles = %d ns", s.CyclesToNanos(13000))
	}
	if PhiKNL().Scaled(4).NumCPUs != 4 {
		t.Fatalf("Scaled failed")
	}
}

func TestTSCDeadlineModeExact(t *testing.T) {
	spec := PhiKNL().Scaled(1)
	spec.TSCDeadline = true
	m := New(spec, 21)
	c := m.CPU(0)
	rec := &sinkRec{}
	c.SetSink(rec)
	// In TSC-deadline mode the countdown is exact to the cycle, with no
	// tick-granularity earliness.
	c.SetOneShotNanos(10_000) // 13,000 cycles exactly at 1.3 GHz
	m.Eng.RunAll(10)
	if len(rec.times) != 1 || rec.times[0] != 13_000 {
		t.Fatalf("TSC-deadline fire at %v, want exactly 13000", rec.times)
	}
}

func TestRetireStaleTimerOnRearm(t *testing.T) {
	m := New(PhiKNL().Scaled(1), 22)
	c := m.CPU(0)
	rec := &sinkRec{}
	c.SetSink(rec)
	// Mask, let a fire go pending, then re-arm: the stale fire must be
	// retired, and only the new programming delivers.
	c.SetPriority(0xF)
	c.SetOneShotTicks(1)
	m.Eng.Run(m.Eng.Now() + 100)
	if c.PendingCount() != 1 {
		t.Fatalf("fire not held pending under mask")
	}
	c.SetOneShotTicks(10)
	if c.PendingCount() != 0 {
		t.Fatalf("stale fire not retired on re-arm")
	}
	c.SetPriority(0)
	if len(rec.vecs) != 0 {
		t.Fatalf("stale fire delivered: %v", rec.vecs)
	}
	m.Eng.RunAll(10)
	if len(rec.vecs) != 1 {
		t.Fatalf("new programming delivered %d fires", len(rec.vecs))
	}
}

func TestSetLadenPartition(t *testing.T) {
	m := New(PhiKNL().Scaled(8), 23)
	d := m.IRQ.AddDevice("nic", 0, 1000)
	m.IRQ.SetLadenPartition([]int{3, 5})
	if m.IRQ.InterruptFree(3) || m.IRQ.InterruptFree(5) {
		t.Fatalf("laden CPUs reported interrupt-free")
	}
	if !m.IRQ.InterruptFree(0) || !m.IRQ.InterruptFree(7) {
		t.Fatalf("non-laden CPUs reported laden")
	}
	if d.Target() != 3 {
		t.Fatalf("device not re-steered to first laden CPU: %d", d.Target())
	}
	rec := &sinkRec{}
	m.CPU(3).SetSink(rec)
	d.Raise()
	if len(rec.vecs) != 1 {
		t.Fatalf("interrupt not delivered to new partition")
	}
	if m.IRQ.SourceByVector(d.Vector) != d {
		t.Fatalf("SourceByVector lookup broken")
	}
	if m.IRQ.SourceByVector(0x7f) != nil {
		t.Fatalf("unknown vector resolved")
	}
}
