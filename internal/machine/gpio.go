package machine

import "hrtsched/internal/sim"

// GPIO models the parallel-port interface the paper adds for external
// verification (Section 5.2): a single outb changes all 8 output pins, and
// an external oscilloscope observes the transitions in true wall-clock
// time — which is exactly what the simulation's reference clock is.
type GPIO struct {
	mach  *Machine
	pins  uint8
	edges []Edge
	limit int
}

// Edge is one recorded pin-state transition.
type Edge struct {
	At   sim.Time // true wall-clock time of the outb
	Pins uint8    // new pin state
	Prev uint8    // previous pin state
}

// reset drives every pin low and clears the recording, keeping its storage.
func (g *GPIO) reset() {
	*g = GPIO{mach: g.mach, edges: g.edges[:0], limit: 1 << 22}
}

// Write performs an outb: all 8 pins assume the new value and the
// transition is recorded with its true wall-clock timestamp.
func (g *GPIO) Write(pins uint8) {
	if pins == g.pins {
		return
	}
	if len(g.edges) < g.limit {
		g.edges = append(g.edges, Edge{At: g.mach.Eng.Now(), Pins: pins, Prev: g.pins})
	}
	g.pins = pins
}

// SetPin sets or clears a single pin (0-7), leaving the others unchanged.
func (g *GPIO) SetPin(pin uint, high bool) {
	if pin > 7 {
		panic("machine: GPIO pin out of range")
	}
	p := g.pins
	if high {
		p |= 1 << pin
	} else {
		p &^= 1 << pin
	}
	g.Write(p)
}

// Pins returns the current pin state.
func (g *GPIO) Pins() uint8 { return g.pins }

// Edges returns all recorded transitions in time order.
func (g *GPIO) Edges() []Edge { return g.edges }

// Reset clears the recording without changing the pin state.
func (g *GPIO) Reset() { g.edges = g.edges[:0] }

// PinEdges extracts the rising/falling transitions of a single pin as
// (time, high) pairs, the form the scope package analyzes.
func (g *GPIO) PinEdges(pin uint) []PinEdge {
	if pin > 7 {
		panic("machine: GPIO pin out of range")
	}
	var out []PinEdge
	mask := uint8(1) << pin
	for _, e := range g.edges {
		was := e.Prev&mask != 0
		is := e.Pins&mask != 0
		if was != is {
			out = append(out, PinEdge{At: e.At, High: is})
		}
	}
	return out
}

// PinEdge is one transition of a single pin.
type PinEdge struct {
	At   sim.Time
	High bool
}
