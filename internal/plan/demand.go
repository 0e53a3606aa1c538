package plan

import (
	"cmp"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"sync"
)

// This file is the admission test both engines ask: the processor-demand
// criterion (Baruah, Rosier & Howell 1990) over a per-period table,
// bounded at L_a (George, Rivierre & Spuri 1996) and walked with QPA
// (Zhang & Burns 2009). Let C_T be the summed jobCharge of the tasks with
// period T and w the set's windowCharge. EDF meets every deadline of the
// synchronous implicit-deadline set exactly when
//
//	h(t) = w + Σ_T ⌊t/T⌋·C_T ≤ t   at every deadline t,
//
// that is, at every multiple of a period. Only integer comparisons decide
// a verdict; every charge, product and sum is overflow-checked, and a
// value past math.MaxInt64 exceeds every deadline, so it misses.

// maxCheckpoints bounds the deadlines one test examines, so its cost
// stays bounded as U′ approaches 1 and L_a grows without limit. A set
// that needs more is rejected conservatively (CheckpointBudget): the
// test's only conservative rejection.
const maxCheckpoints = 1 << 16

// overflowed marks a charge, or a sum or product of charges, past
// math.MaxInt64. No deadline is that late, so a set holding one misses.
const overflowed = -1

// addCharge returns a+b for non-negative charges, or overflowed when
// either is overflowed or the sum passes math.MaxInt64.
func addCharge(a, b int64) int64 {
	if a < 0 || b < 0 || a > math.MaxInt64-b {
		return overflowed
	}
	return a + b
}

// mulCharge returns q·c for non-negative q and c, or overflowed.
func mulCharge(q, c int64) int64 {
	hi, lo := bits.Mul64(uint64(q), uint64(c))
	if q < 0 || c < 0 || hi != 0 || lo > math.MaxInt64 {
		return overflowed
	}
	return int64(lo)
}

// jobCharge is the wall time one job of t is charged: its slice plus two
// invocations (the arrival interrupt and the slice-completion pass),
// inflated by the utilization limit, which reserves a share of every
// interval for non-periodic work (D ns of demand takes D/limit ns, ceil).
// It is overflowed past math.MaxInt64, and for a negative overhead.
func jobCharge(t Task, overheadNs int64, utilLimit float64) int64 {
	ns := addCharge(t.SliceNs, addCharge(overheadNs, overheadNs))
	if ns < 0 || utilLimit <= 0 || utilLimit >= 1 {
		return ns
	}
	// Below 2^53 the float quotient never rounds under ⌊ns/limit⌋, an
	// integer it can represent. Above, it can, so the rare path divides
	// exactly.
	if f := float64(ns) / utilLimit; f < 1<<53 {
		return int64(f) + 1
	} else if f != f { // NaN limit
		return overflowed
	}
	q := new(big.Rat).SetInt64(ns)
	q.Quo(q, new(big.Rat).SetFloat64(utilLimit))
	z := new(big.Int).Quo(q.Num(), q.Denom())
	if z.Add(z, big.NewInt(1)); !z.IsInt64() {
		return overflowed
	}
	return z.Int64()
}

// windowCharge is what an n-task set pays beyond its jobs' charges:
// (n-1)*o, 0 when empty. An arrival pre-empts even an earlier-deadline
// job, and in a window ending at a deadline of task b, each other task
// releases at most one job whose deadline lies past the window (whose
// charge the window does not count); b releases none. The bound holds
// for arbitrary phases.
func windowCharge(n int, overheadNs int64) int64 {
	return mulCharge(int64(max(n-1, 0)), overheadNs)
}

// demandRow is one row of the table the demand test reads: a period, the
// summed jobCharge of the tasks with that period (overflowed past
// math.MaxInt64), and how many tasks they are.
type demandRow struct {
	period int64
	charge int64
	tasks  int
}

// rowScratch pools Analyze's table, so a steady-state Analyze allocates
// nothing.
var rowScratch = sync.Pool{New: func() any {
	buf := make([]demandRow, 0, 16)
	return &buf
}}

// appendRows appends the table of a canonical set's valid tasks to rows:
// one row per distinct period, ascending.
func appendRows(rows []demandRow, canon TaskSet, spec Spec) []demandRow {
	for _, t := range canon {
		if !t.Valid() {
			continue
		}
		c := jobCharge(t, spec.OverheadNs, spec.UtilizationLimit)
		if n := len(rows); n > 0 && rows[n-1].period == t.PeriodNs {
			rows[n-1].charge = addCharge(rows[n-1].charge, c)
			rows[n-1].tasks++
			continue
		}
		rows = append(rows, demandRow{period: t.PeriodNs, charge: c, tasks: 1})
	}
	return rows
}

// rowIndex returns the position of period in rows, or where it would be
// inserted, and whether it is there.
func rowIndex(rows []demandRow, period int64) (int, bool) {
	return slices.BinarySearchFunc(rows, period, func(r demandRow, p int64) int { return cmp.Compare(r.period, p) })
}

// addRow adds one task of the period with per-job charge c to rows.
func addRow(rows []demandRow, period, c int64) []demandRow {
	i, found := rowIndex(rows, period)
	if found {
		rows[i].charge = addCharge(rows[i].charge, c)
		rows[i].tasks++
		return rows
	}
	return slices.Insert(rows, i, demandRow{period: period, charge: c, tasks: 1})
}

// demandTest decides the demand criterion for a table (ascending
// periods) and window charge w. Steps counts the deadlines examined.
func demandTest(rows []demandRow, w int64) SimResult {
	miss := SimResult{Reason: HyperperiodMiss}
	if len(rows) == 0 {
		return SimResult{OK: true, Reason: OK}
	}
	if w < 0 {
		return miss
	}
	for _, r := range rows {
		if r.charge < 0 {
			return miss
		}
	}
	l, fits := demandBound(rows, w)
	if !fits {
		return miss
	}
	// QPA: every deadline after t is known to pass. When h(t) < t, every
	// deadline in [h(t), t] passes too, since h is non-decreasing; when
	// h(t) = t, only t does. The walk ends below the first deadline.
	dmin := rows[0].period
	steps := 0
	for t := lastDeadline(rows, l); t >= dmin; {
		if steps == maxCheckpoints {
			return SimResult{Reason: CheckpointBudget, Steps: steps}
		}
		steps++
		h, ok := demandWithin(rows, w, t)
		switch {
		case !ok:
			miss.Steps = steps
			return miss
		case h < t:
			t = h
		default:
			t = lastDeadline(rows, t-1)
		}
	}
	return SimResult{OK: true, Reason: OK, Steps: steps}
}

// demandWithin returns h(t) and whether it fits, h(t) ≤ t. It stops at
// the first term that would take the sum past t, so nothing overflows.
func demandWithin(rows []demandRow, w, t int64) (int64, bool) {
	if w > t {
		return 0, false
	}
	h := w
	for _, r := range rows {
		if r.period > t {
			break // ascending: no later row has a deadline by t
		}
		c := mulCharge(t/r.period, r.charge)
		if c < 0 || c > t-h {
			return 0, false
		}
		h += c
	}
	return h, true
}

// lastDeadline returns the latest deadline at or before t, or a value
// below every period when there is none.
func lastDeadline(rows []demandRow, t int64) int64 {
	d := int64(0)
	for _, r := range rows {
		d = max(d, t/r.period*r.period)
	}
	return d
}

// demandBound returns a deadline l past which the test cannot fail:
// h(t) ≤ w + t·U′ ≤ t once t ≥ w/(1−U′), where U′ = Σ C_T/T. fits is
// false when no such l exists — U′ > 1, or U′ = 1 with w > 0 — since the
// demand over a hyperperiod H is then w + U′·H > H. The float sum of U′
// only picks l, rounded outward; where it cannot tell U′ from 1,
// exactBound decides.
func demandBound(rows []demandRow, w int64) (l int64, fits bool) {
	u := 0.0
	for _, r := range rows {
		u += float64(r.charge) / float64(r.period)
	}
	// err bounds the rounding in u: two conversions and a division per
	// row, and the sum, each within 2^-53 relative, with room to spare.
	err := float64(len(rows)+4) * 0x1p-50 * max(u, 1)
	switch {
	case u > 1+err:
		return 0, false
	case u < 1-2*err:
		f := float64(w)/(1-u-err)*(1+0x1p-40) + 1
		if !(f < 1<<63) {
			return math.MaxInt64, true
		}
		return int64(f), true
	}
	return exactBound(rows, w)
}

// exactBound is demandBound in exact rationals, for the rare U′ within
// rounding of 1.
func exactBound(rows []demandRow, w int64) (int64, bool) {
	slack := big.NewRat(1, 1)
	var term big.Rat
	for _, r := range rows {
		slack.Sub(slack, term.SetFrac64(r.charge, r.period))
	}
	switch slack.Sign() {
	case -1:
		return 0, false
	case 0:
		return 0, w == 0
	}
	l := new(big.Rat).SetInt64(w)
	l.Quo(l, slack)
	q := new(big.Int).Quo(l.Num(), l.Denom())
	if q.Add(q, big.NewInt(1)); !q.IsInt64() {
		return math.MaxInt64, true
	}
	return q.Int64(), true
}
