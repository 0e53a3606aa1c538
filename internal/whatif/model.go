// Package whatif answers stochastic scheduling questions against the
// simulated machine: "would this task set survive this node under this
// fault mix?" A Scenario composes a periodic task set, a stochastic
// execution-time model, a named fault mix, and a degradation policy, and
// Run executes N seeded replications on the event engine, reporting miss
// behaviour, response-time distributions, survival probability, and how
// often the analytical admission verdict disagrees with observed timing.
//
// Determinism contract: every source of randomness derives from the
// machine's root seed through sim.Rand.Split in a fixed construction
// order, so a given (Scenario, Seed) pair produces a byte-identical
// Report — rendering and JSON included — on every run, platform, and
// routing path.
package whatif

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"hrtsched/internal/sim"
)

// Dist selects the sampling distribution of a stochastic execution model.
type Dist uint8

const (
	// DistUniform draws uniformly over the model's [lo, hi] cycle range.
	DistUniform Dist = iota
	// DistNormal draws from a normal centred on the range midpoint with
	// sigma = (hi-lo)/6, truncated to the range — the "3σ" convention of
	// the DAG-simulator exemplar: the untruncated distribution puts
	// ~99.7% of its mass inside the range.
	DistNormal
)

// ModelKind selects how per-job execution cost relates to the task's WCET.
type ModelKind uint8

const (
	// ModelWCET runs every job for exactly its WCET. The model is inert:
	// Draw returns the budget unchanged and consumes no randomness, so a
	// wcet scenario is bit-identical to driving the engine directly.
	ModelWCET ModelKind = iota
	// ModelFullRandom draws from [1, C] where C is the WCET in cycles.
	ModelFullRandom
	// ModelHalfRandom draws from [C/2, C].
	ModelHalfRandom
	// ModelRange draws from [a*C, b*C] for configured fractions a <= b.
	// b may exceed 1 to model jobs that overrun their analytical budget.
	ModelRange
)

// maxRangeFrac caps ModelRange fractions; an overrun model beyond 4x WCET
// is a configuration error, not an experiment.
const maxRangeFrac = 4.0

// ExecModel is a per-job execution-cost model. The zero value is the
// inert WCET model.
type ExecModel struct {
	Kind ModelKind
	Dist Dist
	// LoFrac and HiFrac bound ModelRange draws as fractions of WCET.
	LoFrac, HiFrac float64
}

// ParseModel parses the textual model forms used in scenario JSON and on
// CLI flags:
//
//	wcet
//	full-random        half-random        random-<a>,<b>
//
// any of which (except wcet) may carry a ":uniform" or ":normal" suffix
// selecting the distribution (default uniform). Examples: "half-random",
// "full-random:normal", "random-0.8,1.2".
func ParseModel(s string) (ExecModel, error) {
	base, distName := s, ""
	if i := strings.IndexByte(s, ':'); i >= 0 {
		base, distName = s[:i], s[i+1:]
	}
	var m ExecModel
	switch {
	case base == "wcet":
		if distName != "" {
			return m, fmt.Errorf("whatif: model %q: wcet takes no distribution", s)
		}
		return m, nil
	case base == "full-random":
		m.Kind = ModelFullRandom
	case base == "half-random":
		m.Kind = ModelHalfRandom
	case strings.HasPrefix(base, "random-"):
		m.Kind = ModelRange
		parts := strings.Split(strings.TrimPrefix(base, "random-"), ",")
		if len(parts) != 2 {
			return m, fmt.Errorf("whatif: model %q: want random-<a>,<b>", s)
		}
		lo, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return m, fmt.Errorf("whatif: model %q: bad lower fraction: %v", s, err)
		}
		hi, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return m, fmt.Errorf("whatif: model %q: bad upper fraction: %v", s, err)
		}
		// Negated so a NaN fraction fails every comparison and is rejected.
		if !(lo > 0 && lo <= hi && hi <= maxRangeFrac) {
			return m, fmt.Errorf("whatif: model %q: want 0 < a <= b <= %g", s, maxRangeFrac)
		}
		m.LoFrac, m.HiFrac = lo, hi
	default:
		return m, fmt.Errorf("whatif: unknown model %q (want wcet, full-random, half-random, or random-<a>,<b>)", s)
	}
	switch distName {
	case "", "uniform":
		m.Dist = DistUniform
	case "normal":
		m.Dist = DistNormal
	default:
		return m, fmt.Errorf("whatif: model %q: unknown distribution %q (want uniform or normal)", s, distName)
	}
	return m, nil
}

// String renders the canonical textual form ParseModel accepts.
func (m ExecModel) String() string {
	var base string
	switch m.Kind {
	case ModelWCET:
		return "wcet"
	case ModelFullRandom:
		base = "full-random"
	case ModelHalfRandom:
		base = "half-random"
	case ModelRange:
		base = fmt.Sprintf("random-%g,%g", m.LoFrac, m.HiFrac)
	default:
		return fmt.Sprintf("ExecModel(%d)", uint8(m.Kind))
	}
	if m.Dist == DistNormal {
		return base + ":normal"
	}
	return base
}

// Stochastic reports whether Draw consumes randomness.
func (m ExecModel) Stochastic() bool { return m.Kind != ModelWCET }

// bounds returns the [lo, hi] cycle range for a WCET of c cycles.
func (m ExecModel) bounds(c int64) (lo, hi int64) {
	switch m.Kind {
	case ModelFullRandom:
		lo, hi = 1, c
	case ModelHalfRandom:
		lo, hi = c/2, c
	case ModelRange:
		lo = int64(math.Round(m.LoFrac * float64(c)))
		hi = int64(math.Round(m.HiFrac * float64(c)))
	}
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Draw samples one job's execution cost in cycles given the task's WCET
// budget. The WCET model returns wcetCycles without touching rng — that
// inertness is load-bearing: it is what makes a wcet scenario reproduce
// the unmodelled engine bit-identically.
func (m ExecModel) Draw(rng *sim.Rand, wcetCycles int64) int64 {
	if m.Kind == ModelWCET {
		return wcetCycles
	}
	lo, hi := m.bounds(wcetCycles)
	if lo == hi {
		return lo
	}
	switch m.Dist {
	case DistNormal:
		mean := float64(lo+hi) / 2
		sigma := float64(hi-lo) / 6
		x := rng.TruncNormFloat64(mean, sigma, float64(lo), float64(hi))
		c := int64(math.Round(x))
		if c < lo {
			c = lo
		} else if c > hi {
			c = hi
		}
		return c
	default:
		return rng.Range(lo, hi)
	}
}
