package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"hrtsched/internal/plan"
)

// diffScan is the differential oracle behind the FuzzScan* targets:
// whenever the canonical scanner accepts data, encoding/json with unknown
// fields rejected must decode it without error to a deeply equal value.
func diffScan[T any](t *testing.T, data []byte) {
	t.Helper()
	var got T
	if !scanCanonical(data, &got) {
		return
	}
	var want T
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&want); err != nil {
		t.Fatalf("scanner accepted %q, encoding/json refuses it: %v", data, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q:\nscanner       %#v\nencoding/json %#v", data, got, want)
	}
}

var scanSeeds = []string{
	`{"tasks":[{"period_ns":1000000,"slice_ns":600000}]}`,
	` { "tasks" : [ { "slice_ns" : 1 , "period_ns" : -0 } ] , "probe_period_ns" : 9223372036854775807 }` + "\n",
	`{"tasks":[],"probe_period_ns":-9223372036854775808}`,
	`{"id":"svc-a","tasks":[{"period_ns":100000,"slice_ns":20000},{"period_ns":200000,"slice_ns":1}]}`,
	`{"id":"x"}`,
	`{"items":[{"tasks":[{"period_ns":1000000,"slice_ns":1000}]},{"tasks":[]}]}`,
	`{"items":[{"id":"a","tasks":[{"period_ns":1000000,"slice_ns":1000}]},{"id":"b","tasks":[]}]}`,
	`{"items":[]}`,
	`{}`,
	`{"TASKS":[]}`,
	`{"tasks":null}`,
	`{"tasks":[{"period_ns":1e3,"slice_ns":1.0}]}`,
	`{"id":"a","id":"b"}`,
	`{"id":"\u0061"}`,
	`{"tasks":[]} {}`,
	`{"tasks":[{"period_ns":9223372036854775808,"slice_ns":01}]}`,
}

func FuzzScanAnalyze(f *testing.F) {
	for _, s := range scanSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { diffScan[analyzeRequest](t, data) })
}

func FuzzScanAnalyzeBatch(f *testing.F) {
	for _, s := range scanSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { diffScan[analyzeBatchRequest](t, data) })
}

func FuzzScanPlace(f *testing.F) {
	for _, s := range scanSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { diffScan[placeRequest](t, data) })
}

func FuzzScanPlaceBatch(f *testing.F) {
	for _, s := range scanSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { diffScan[placeBatchRequest](t, data) })
}

func FuzzScanRemove(f *testing.F) {
	for _, s := range scanSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { diffScan[idRequest](t, data) })
}

// TestScanAcceptsCanonicalBodies checks the fast path is taken for the
// canonical spellings and refused for the rest, so the differential
// targets cannot pass by a scanner that accepts nothing.
func TestScanAcceptsCanonicalBodies(t *testing.T) {
	accept := []struct {
		into any
		body string
	}{
		{new(analyzeRequest), `{"tasks":[{"period_ns":1000000,"slice_ns":600000}]}`},
		{new(analyzeRequest), "\t{\"probe_period_ns\":0,\r\n\"tasks\":[]} "},
		{new(analyzeRequest), `{"tasks":[{"period_ns":-9223372036854775808,"slice_ns":9223372036854775807}]}`},
		{new(analyzeBatchRequest), `{"items":[{"tasks":[{"period_ns":1,"slice_ns":1}]},{"tasks":[]}]}`},
		{new(placeRequest), `{"id":"a b~!","tasks":[{"period_ns":100000,"slice_ns":20000}]}`},
		{new(placeBatchRequest), `{"items":[{"id":"a","tasks":[]},{"tasks":[],"id":""}]}`},
		{new(idRequest), `{"id":"svc-a"}`},
		{new(idRequest), `{}`},
	}
	for _, tc := range accept {
		if !scanCanonical([]byte(tc.body), tc.into) {
			t.Errorf("%T %s: scanner refused a canonical body", tc.into, tc.body)
		}
	}
	refuse := []struct {
		into any
		body string
	}{
		{new(analyzeRequest), `{"TASKS":[]}`},
		{new(analyzeRequest), `{"t\u0061sks":[]}`},
		{new(analyzeRequest), `{"tasks":null}`},
		{new(analyzeRequest), `{"tasks":[{"period_ns":1e3,"slice_ns":1}]}`},
		{new(analyzeRequest), `{"tasks":[{"period_ns":1.0,"slice_ns":1}]}`},
		{new(analyzeRequest), `{"tasks":[{"period_ns":01,"slice_ns":1}]}`},
		{new(analyzeRequest), `{"tasks":[{"period_ns":9223372036854775808,"slice_ns":1}]}`},
		{new(analyzeRequest), `{"tasks":[],"tasks":[]}`},
		{new(analyzeRequest), `{"tasks":[],"extra":1}`},
		{new(analyzeRequest), `{"tasks":[]} x`},
		{new(analyzeRequest), `{"tasks":[],}`},
		{new(analyzeRequest), `{"tasks":[{"period_ns":1,"slice_ns":1},]}`},
		{new(analyzeRequest), ``},
		{new(placeRequest), `{"id":"a\"b","tasks":[]}`},
		{new(placeRequest), "{\"id\":\"caf\xc3\xa9\"}"},
		{new(idRequest), `{"id":null}`},
		{new(idRequest), `{"id":"a","tasks":[]}`},
		{new(placeBatchRequest), `{"items":null}`},
		{new(nodeRequest), `{"node":1}`}, // not a hot type
	}
	for _, tc := range refuse {
		if scanCanonical([]byte(tc.body), tc.into) {
			t.Errorf("%T %s: scanner accepted a non-canonical body", tc.into, tc.body)
		}
	}
}

// Mirrors of the hot response types: the same fields and tags and no
// methods, so encoding/json encodes them by reflection — the
// specification each appender must match byte for byte.
type (
	verdictMirror struct {
		Admit       bool           `json:"admit"`
		Reason      plan.Reason    `json:"reason"`
		Utilization float64        `json:"utilization"`
		BoundOK     bool           `json:"bound_ok"`
		Sim         plan.SimResult `json:"sim"`
		Digest      uint64         `json:"digest"`
	}
	placeResultMirror struct {
		Placed   bool          `json:"placed"`
		Node     int           `json:"node"`
		Attempts int           `json:"attempts"`
		Verdict  verdictMirror `json:"verdict"`
	}
	apiErrorMirror struct {
		Code         string `json:"code"`
		Reason       string `json:"reason"`
		RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
		DAGCode      string `json:"dag_code,omitempty"`
		BlockingPath []int  `json:"blocking_path,omitempty"`
	}
	placeBatchEntryMirror struct {
		ID     string             `json:"id"`
		Result *placeResultMirror `json:"result,omitempty"`
		Error  *apiErrorMirror    `json:"error,omitempty"`
	}
)

// fuzzVerdict builds a verdict from fuzzed fields; ok is false when its
// utilization is not finite (encoding/json has no bytes for it).
func fuzzVerdict(admit bool, reason uint8, util float64, steps int64, digest uint64) (plan.Verdict, bool) {
	v := plan.Verdict{Admit: admit, Reason: plan.Reason(reason), Utilization: util, BoundOK: !admit,
		Sim:    plan.SimResult{OK: admit, Reason: plan.Reason(reason / 2), Steps: int(steps)},
		Digest: digest}
	return v, !math.IsNaN(util) && !math.IsInf(util, 0)
}

func mustMarshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal(%#v): %v", v, err)
	}
	return string(b)
}

func checkAppender(t *testing.T, name string, got []byte, want string) {
	t.Helper()
	if string(got) != "prefix"+want {
		t.Fatalf("%s:\n got %s\nwant prefix%s", name, got, want)
	}
}

// extremeFloats seeds the appender targets with every float form
// encoding/json distinguishes: zero and negative zero, both sides of the
// 1e-6 and 1e21 format switches, denormals and the largest float.
var extremeFloats = []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 9.99e-7, 1e20, 1e21,
	math.SmallestNonzeroFloat64, math.MaxFloat64, -1e-9, 0.1 + 0.2, 0.79}

func FuzzAppendPlaceResult(f *testing.F) {
	for i, u := range extremeFloats {
		f.Add(i%2 == 0, i-1, i*3, i%3 == 0, uint8(i%8), u, int64(i)*1_000_003, uint64(i)<<60)
	}
	f.Fuzz(func(t *testing.T, placed bool, node, attempts int, admit bool, reason uint8, util float64, steps int64, digest uint64) {
		v, ok := fuzzVerdict(admit, reason, util, steps, digest)
		if !ok {
			return
		}
		r := PlaceResult{Placed: placed, Node: node, Attempts: attempts, Verdict: v}
		want := mustMarshal(t, placeResultMirror{r.Placed, r.Node, r.Attempts, verdictMirror(v)})
		checkAppender(t, "PlaceResult.AppendJSON", r.AppendJSON([]byte("prefix")), want)
	})
}

func FuzzAppendRemoveReply(f *testing.F) {
	for i, u := range extremeFloats {
		f.Add(i%2 == 0, uint8(i%8), u, int64(i)*1_000_003, uint64(i)<<60)
	}
	f.Fuzz(func(t *testing.T, admit bool, reason uint8, util float64, steps int64, digest uint64) {
		v, ok := fuzzVerdict(admit, reason, util, steps, digest)
		if !ok {
			return
		}
		want := mustMarshal(t, map[string]any{"verdict": verdictMirror(v)})
		checkAppender(t, "appendRemoveReply", appendRemoveReply([]byte("prefix"), v), want)
	})
}

func FuzzAppendAnalyzeBatchReply(f *testing.F) {
	for i, u := range extremeFloats {
		f.Add(uint8(i), i%2 == 0, uint8(i%8), u, int64(i)*1_000_003, uint64(i)<<60)
	}
	f.Fuzz(func(t *testing.T, n uint8, admit bool, reason uint8, util float64, steps int64, digest uint64) {
		var verdicts []plan.Verdict // nil when n is 0: encoding/json writes null
		var mirrors []verdictMirror
		for i := 0; i < int(n%5); i++ {
			v, ok := fuzzVerdict(admit != (i%2 == 1), reason+uint8(i), util*float64(i+1), steps, digest+uint64(i))
			if !ok {
				return
			}
			verdicts = append(verdicts, v)
			mirrors = append(mirrors, verdictMirror(v))
		}
		if n == 5 {
			verdicts, mirrors = []plan.Verdict{}, []verdictMirror{}
		}
		want := mustMarshal(t, map[string]any{"items": mirrors})
		checkAppender(t, "appendAnalyzeBatchReply", appendAnalyzeBatchReply([]byte("prefix"), verdicts), want)
	})
}

func FuzzAppendPlaceBatchReply(f *testing.F) {
	f.Add(uint8(3), "batch-a", "conflict", `serve: duplicate placement id: "batch-a"`, int64(0), "", []byte{}, 0.5, uint64(1))
	f.Add(uint8(7), "<&>\u2028\x00é", "invalid_dag", "cycle <a> & \"b\"", int64(1), "cycle", []byte{0, 1, 255}, 1e-7, uint64(2))
	f.Add(uint8(3), "a<b", "c>d", "e&f", int64(2), "g<h", []byte{1}, 0.25, uint64(5)) // each escaped alone
	f.Add(uint8(0), "", "", "", int64(-1), "", []byte(nil), 1e21, uint64(3))
	f.Add(uint8(12), "x\xff", "overloaded", "shard 3 queue full", int64(math.MaxInt64), "\\", []byte{9}, math.Copysign(0, -1), uint64(4))
	f.Fuzz(func(t *testing.T, shape uint8, id, code, reason string, retry int64, dagCode string, path []byte, util float64, digest uint64) {
		v, ok := fuzzVerdict(shape%2 == 0, shape%8, util, int64(digest), digest)
		if !ok {
			return
		}
		var blocking []int
		if path != nil {
			blocking = []int{}
			for _, p := range path {
				blocking = append(blocking, int(p)-128)
			}
		}
		e := APIError{Code: code, Reason: reason, RetryAfterMs: retry, DAGCode: dagCode, BlockingPath: blocking}
		res := PlaceResult{Placed: shape%3 == 0, Node: int(shape) - 1, Attempts: int(shape), Verdict: v}
		var items []PlaceBatchEntry // nil for shape 0: encoding/json writes null
		var mirrors []placeBatchEntryMirror
		for i := 0; i < int(shape%6); i++ {
			it := PlaceBatchEntry{ID: id[:i*len(id)/5]}
			m := placeBatchEntryMirror{ID: it.ID}
			if (int(shape)>>i)&1 == 1 {
				it.Result = &res
				m.Result = &placeResultMirror{res.Placed, res.Node, res.Attempts, verdictMirror(v)}
			}
			if (int(shape)>>(i+1))&1 == 1 {
				it.Error = &e
				em := apiErrorMirror(e)
				m.Error = &em
			}
			items = append(items, it)
			mirrors = append(mirrors, m)
		}
		want := mustMarshal(t, map[string]any{"items": mirrors})
		checkAppender(t, "appendPlaceBatchReply", appendPlaceBatchReply([]byte("prefix"), items), want)
		checkAppender(t, "APIError.AppendJSON", e.AppendJSON([]byte("prefix")), mustMarshal(t, apiErrorMirror(e)))
	})
}
