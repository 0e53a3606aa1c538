// Package timesync implements the boot-time cross-CPU cycle-counter
// calibration of Section 3.4. The kernel starts booting on each CPU at a
// slightly different time, so the raw TSC values disagree; a barrier-like
// handshake estimates each CPU's phase relative to CPU 0 (which defines
// wall-clock time), and on machines that support it the counters are
// written back with predicted values. Both the measurement and the
// write-back have instruction-sequence granularity, so a residual error
// remains — the quantity Figure 3 histograms.
package timesync

import (
	"hrtsched/internal/machine"
	"hrtsched/internal/sim"
)

// Result summarizes one calibration pass.
type Result struct {
	// SoftOffset is the per-CPU software compensation (in cycles) that a
	// local scheduler subtracts from its TSC to estimate wall-clock time.
	// On machines with writable TSCs the write-back absorbs the estimate
	// and SoftOffset is zero.
	SoftOffset []int64
	// Residual is the ground-truth post-calibration disagreement of each
	// CPU's wall-clock estimate with CPU 0's, in cycles. Kernel code cannot
	// observe it; tests and Figure 3 can.
	Residual []int64
	// DoneAt is the simulated time calibration finished on all CPUs.
	DoneAt sim.Time
	// Rounds is the number of handshake rounds used per CPU.
	Rounds int
}

// handshakeCostCycles is the per-round cost of one cross-CPU offset
// measurement (two cache-line bounces plus serializing reads).
const handshakeCostCycles = 4_000

// Calibrate runs the boot-time calibration protocol on m, advancing the
// machine's clock past the end of the slowest CPU's participation. The rng
// supplies the measurement and write-back errors.
func Calibrate(m *machine.Machine, rng *sim.Rand) *Result {
	res := new(Result)
	CalibrateInto(res, m, rng)
	return res
}

// CalibrateInto is Calibrate writing into res, whose slices are reused
// when they are large enough. The protocol, its random draws and the
// clock it advances are exactly Calibrate's.
func CalibrateInto(res *Result, m *machine.Machine, rng *sim.Rand) {
	spec := m.Spec
	n := m.NumCPUs()
	*res = Result{
		SoftOffset: resize(res.SoftOffset, n),
		Residual:   resize(res.Residual, n),
		Rounds:     spec.CalibRounds,
	}
	if res.Rounds < 1 {
		res.Rounds = 1
	}

	ref := m.CPU(0)
	var latestBoot sim.Time
	for i := 0; i < n; i++ {
		if b := m.CPU(i).BootAt(); b > latestBoot {
			latestBoot = b
		}
	}

	for i := 1; i < n; i++ {
		cpu := m.CPU(i)
		trueOffset := cpu.ReadTSC() - ref.ReadTSC()
		// Each handshake round observes the true offset corrupted by the
		// granularity of the measuring instruction sequence.
		var sum int64
		for r := 0; r < res.Rounds; r++ {
			err := int64(0)
			if spec.CalibReadErrCycles > 0 {
				err = rng.Range(-spec.CalibReadErrCycles, spec.CalibReadErrCycles)
			}
			sum += trueOffset + err
		}
		est := sum / int64(res.Rounds)
		if spec.TSCWritable {
			// Predictive write-back: set this CPU's counter to what the
			// reference counter will read, modulo write granularity.
			werr := int64(0)
			if spec.CalibWriteErrCycles > 0 {
				werr = rng.Range(0, spec.CalibWriteErrCycles)
			}
			cpu.WriteTSC(cpu.ReadTSC() - est + werr)
			res.SoftOffset[i] = 0
		} else {
			res.SoftOffset[i] = est
		}
	}

	// Ground truth residuals: the disagreement between each CPU's corrected
	// wall-clock estimate and CPU 0's.
	for i := 0; i < n; i++ {
		cpu := m.CPU(i)
		d := (cpu.ReadTSC() - res.SoftOffset[i]) - ref.ReadTSC()
		if d < 0 {
			d = -d
		}
		res.Residual[i] = d
	}

	// Calibration occupies the boot path: everyone reaches the barrier, then
	// rounds proceed. Advance simulated time accordingly.
	cost := sim.Duration(int64(res.Rounds) * handshakeCostCycles * int64(n))
	res.DoneAt = latestBoot + cost
	if m.Eng.Now() < res.DoneAt {
		m.Eng.Run(res.DoneAt)
	}
}

// resize returns s with length n and every element zero, reallocating
// only when s is too small.
func resize(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// MaxResidual returns the largest ground-truth residual in cycles.
func (r *Result) MaxResidual() int64 {
	var max int64
	for _, v := range r.Residual {
		if v > max {
			max = v
		}
	}
	return max
}

// Clock is a per-CPU wall-clock estimator: the scheduler's only view of
// time. It reads the CPU's (possibly written-back) TSC, applies the
// software compensation, and converts to nanoseconds held in an int64 —
// "at least three digit precision ... and no overflows on a 2 GHz machine
// for a duration exceeding its lifetime" (Section 3.3).
type Clock struct {
	cpu        *machine.CPU
	softOffset int64
	freqHz     int64
}

// NewClock builds the wall clock for cpu from a calibration result.
func NewClock(cpu *machine.CPU, r *Result) *Clock {
	c := new(Clock)
	c.Reset(cpu, r)
	return c
}

// Reset rebuilds c in place as NewClock(cpu, r) would build it.
func (c *Clock) Reset(cpu *machine.CPU, r *Result) {
	off := int64(0)
	if r != nil {
		off = r.SoftOffset[cpu.ID()]
	}
	*c = Clock{cpu: cpu, softOffset: off, freqHz: cpu.Machine().Spec.FreqHz}
}

// NowCycles returns the estimated wall-clock time in cycles.
func (c *Clock) NowCycles() int64 { return c.cpu.ReadTSC() - c.softOffset }

// NowNanos returns the estimated wall-clock time in nanoseconds.
func (c *Clock) NowNanos() int64 {
	return sim.CyclesToNanos(sim.Time(c.NowCycles()), c.freqHz)
}

// NanosToCycles converts a nanosecond span to cycles at the calibrated
// frequency, truncating.
func (c *Clock) NanosToCycles(ns int64) int64 {
	return int64(sim.NanosToCycles(ns, c.freqHz))
}

// CyclesToNanos converts cycles to nanoseconds at the calibrated frequency.
func (c *Clock) CyclesToNanos(cy int64) int64 {
	return sim.CyclesToNanos(sim.Time(cy), c.freqHz)
}
