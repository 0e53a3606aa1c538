package plan

import (
	"encoding/json"
	"math"
	"testing"
)

// verdictMirror has Verdict's fields and tags and no methods, so
// encoding/json encodes it by reflection: the specification AppendJSON
// must match byte for byte.
type verdictMirror struct {
	Admit       bool      `json:"admit"`
	Reason      Reason    `json:"reason"`
	Utilization float64   `json:"utilization"`
	BoundOK     bool      `json:"bound_ok"`
	Sim         SimResult `json:"sim"`
	Digest      uint64    `json:"digest"`
}

// FuzzVerdictAppendJSON checks AppendJSON, and MarshalJSON through it,
// against encoding/json's reflective encoding of the same fields.
func FuzzVerdictAppendJSON(f *testing.F) {
	floats := []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 9.99e-7, 0.000001234, 1e20, 1e21, 1.5e300,
		math.SmallestNonzeroFloat64, math.MaxFloat64, -1e-9, 0.1 + 0.2, 0.79, 1.2345678901234567}
	for i, u := range floats {
		r := uint8(i % 6) // every Reason, plus one no tag names
		f.Add(i%2 == 0, r, u, i%3 == 0, i%2 == 1, uint8(7-r), i*7, uint64(i)<<60|uint64(i))
	}
	f.Add(true, uint8(255), 1.0, true, true, uint8(255), math.MaxInt, uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, admit bool, reason uint8, util float64, boundOK, simOK bool, simReason uint8, steps int, digest uint64) {
		v := Verdict{Admit: admit, Reason: Reason(reason), Utilization: util, BoundOK: boundOK,
			Sim: SimResult{OK: simOK, Reason: Reason(simReason), Steps: steps}, Digest: digest}
		want, err := json.Marshal(verdictMirror(v))
		if err != nil {
			if _, merr := json.Marshal(v); merr == nil {
				t.Fatalf("encoding/json refuses %+v (%v), MarshalJSON does not", v, err)
			}
			return // a non-finite utilization: no JSON to match
		}
		if got := v.AppendJSON([]byte("prefix")); string(got) != "prefix"+string(want) {
			t.Fatalf("AppendJSON:\n got %s\nwant prefix%s", got, want)
		}
		if got, err := json.Marshal(v); err != nil || string(got) != string(want) {
			t.Fatalf("MarshalJSON: %s (%v)\nwant %s", got, err, want)
		}
	})
}
