package machine

import (
	"fmt"

	"hrtsched/internal/sim"
)

// Machine is one simulated shared-memory node: an event engine, a set of
// CPUs (hardware threads), an SMI controller, an external interrupt
// controller and a GPIO port for external timing verification.
type Machine struct {
	Spec Spec
	Eng  *sim.Engine
	CPUs []*CPU
	SMI  *SMIController
	IRQ  *IRQController
	GPIO *GPIO

	rng sim.Rand
}

// New builds a machine from a spec with all randomness derived from seed.
// CPUs receive staggered boot times and raw (uncalibrated) TSC offsets;
// the timesync package is responsible for bringing the counters into
// agreement, as the kernel does at boot (Section 3.4).
func New(spec Spec, seed uint64) *Machine {
	m := &Machine{Eng: sim.NewEngine()}
	m.SMI = &SMIController{mach: m}
	m.IRQ = &IRQController{mach: m, laden: map[int]bool{}}
	m.GPIO = &GPIO{mach: m}
	m.Reset(spec, seed)
	return m
}

// Reset powers the machine back on as New(spec, seed) would build it,
// reusing its storage: the engine (see sim.Engine.Reset), the CPUs with
// their one-shot timer events, and the SMI, IRQ and GPIO controllers.
// Every random draw happens in New's order, so everything simulated on
// the reset machine matches a new one bit for bit. Pointers into the
// previous run — device sources, pending interrupts, GPIO edges — are
// invalid afterwards; the controllers themselves (m.SMI, m.IRQ, m.GPIO,
// m.CPU(i)) stay the same objects.
func (m *Machine) Reset(spec Spec, seed uint64) {
	if spec.NumCPUs < 1 {
		panic("machine: spec with no CPUs")
	}
	m.Spec = spec
	m.Eng.Reset()
	m.rng.Seed(seed)
	var bootRng, tscRng sim.Rand
	m.rng.SplitInto(&bootRng)
	m.rng.SplitInto(&tscRng)
	if cap(m.CPUs) < spec.NumCPUs {
		m.CPUs = append(m.CPUs[:cap(m.CPUs)], make([]*CPU, spec.NumCPUs-cap(m.CPUs))...)
	}
	m.CPUs = m.CPUs[:spec.NumCPUs]
	for i := range m.CPUs {
		boot := sim.Time(0)
		offset := int64(0)
		if i > 0 {
			if spec.BootStaggerCycles > 0 {
				boot = sim.Time(int64(i)*spec.BootStaggerCycles/int64(spec.NumCPUs) +
					bootRng.Int63n(spec.BootStaggerCycles/4+1))
			}
			if spec.BootTSCSpreadCycles > 0 {
				offset = tscRng.Int63n(spec.BootTSCSpreadCycles)
			}
		}
		if m.CPUs[i] == nil {
			m.CPUs[i] = newCPU(m)
		}
		m.CPUs[i].reset(i, boot, offset)
	}
	m.SMI.reset()
	m.IRQ.reset()
	m.GPIO.reset()
}

// Now returns the current simulated wall-clock time in reference cycles.
func (m *Machine) Now() sim.Time { return m.Eng.Now() }

// CPU returns hardware thread i.
func (m *Machine) CPU(i int) *CPU {
	if i < 0 || i >= len(m.CPUs) {
		panic(fmt.Sprintf("machine: no CPU %d on %s", i, m.Spec.Name))
	}
	return m.CPUs[i]
}

// NumCPUs returns the hardware thread count.
func (m *Machine) NumCPUs() int { return len(m.CPUs) }

// Rand derives a fresh deterministic random stream from the machine's root
// seed, for use by software components built on top of the machine.
func (m *Machine) Rand() *sim.Rand { return m.rng.Split() }

// RandInto is Rand for a stream the caller already stores: it reseeds dst
// in place with the stream Rand would return, consuming the same draw.
func (m *Machine) RandInto(dst *sim.Rand) { m.rng.SplitInto(dst) }

// OverheadJitter perturbs a nominal cost by the spec's run-to-run jitter
// percentage, using the supplied stream. The result is never negative.
func (m *Machine) OverheadJitter(rng *sim.Rand, nominal int64) int64 {
	if m.Spec.OverheadJitterPct <= 0 || nominal <= 0 {
		return nominal
	}
	span := nominal * m.Spec.OverheadJitterPct / 100
	if span <= 0 {
		return nominal
	}
	v := nominal + rng.Range(-span, span)
	if v < 0 {
		v = 0
	}
	return v
}
