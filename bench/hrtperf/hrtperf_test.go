package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func benchmarkJSON(t *testing.T) benchmarkFile {
	t.Helper()
	bf, err := readBenchmark(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricTablesMatchBenchmark keeps the program's metric tables and
// BENCHMARK.json in step: same names, units and directions, same order.
func TestMetricTablesMatchBenchmark(t *testing.T) {
	bf := benchmarkJSON(t)
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, program has %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
	defs := perLayerDefs()
	if len(bf.PerLayer) != len(defs) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(bf.PerLayer), len(defs))
	}
	for i, m := range bf.PerLayer {
		if d := defs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s %s %s, program has %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
}

// checkEmitted requires exactly the listed metrics, each with its unit.
func checkEmitted(t *testing.T, got map[string]metric, want []metricDef) {
	t.Helper()
	for _, d := range want {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", d.name)
		}
		m, ok := got[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", d.name)
		case m.Unit != d.unit:
			t.Errorf("metric %s emitted in %q, listed in %q", d.name, m.Unit, d.unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("emitted %d metrics, %d listed", len(got), len(want))
	}
}

// TestWorkloadsInProcess runs every workload for about 200 ms against the
// in-process stack, then one short trace run. It asserts correctness and
// the metric set, never timings.
func TestWorkloadsInProcess(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{seed: 7, measure: 200 * time.Millisecond, setups: 1, dir: t.TempDir()}
			rep, err := runEndToEnd(ctx, inProcLauncher{}, w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", rep.Correct, rep.Attempted, rep.Failed, rep.Failures)
			}
			checkEmitted(t, rep.Metrics, endToEnd)
		})
	}
	t.Run("trace", func(t *testing.T) {
		cfg := runConfig{seed: 7, measure: 800 * time.Millisecond, setups: 1, dir: t.TempDir()}
		rep, err := runTrace(ctx, inProcLauncher{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Failed != 0 {
			t.Fatalf("correct=%v failed=%d: %v", rep.Correct, rep.Failed, rep.Failures)
		}
		checkEmitted(t, rep.Metrics, perLayerDefs())
	})
}

// streamDigest hashes the first calls of every connection's request
// stream, plus any prefill bodies, for one seed.
func streamDigest(w *workload, seed uint64, calls int) [sha256.Size]byte {
	h := sha256.New()
	rs := w.build(seed)
	if f, ok := rs.(*fleetBatch); ok {
		for _, b := range f.fill {
			h.Write(b)
		}
	}
	for i, wk := range rs.workers() {
		for range calls {
			c := wk.next()
			fmt.Fprintf(h, "%d %s %s\n", i, c.path, c.body)
		}
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		a, b := streamDigest(w, 7, 500), streamDigest(w, 7, 500)
		if a != b {
			t.Errorf("%s: seed 7 generated two different request streams", w.name)
		}
		if streamDigest(w, 8, 500) == a {
			t.Errorf("%s: seeds 7 and 8 generated the same request stream", w.name)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{5, 1}, 0, 3, 6}, // the exclusive method extrapolates
		{[]float64{3, 9, 1}, 1, 3, 9},
	} {
		q1, q2, q3 := quartiles(tc.v)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.v, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(v []float64, by float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * by
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		p, c   []float64
		higher bool
		want   string
	}{
		{"same", steady, steady, false, "unchanged"},
		{"slower", steady, shift(steady, 1.2), false, "regressed"},
		{"faster", steady, shift(steady, 0.8), false, "improved"},
		{"higher is better", steady, shift(steady, 0.8), true, "regressed"},
		{"noisy parent", []float64{50, 150, 80, 120, 100, 60, 140, 100, 90, 110}, shift(steady, 1.2), false, "unresolved"},
	} {
		if got, _ := judge(tc.p, tc.c, tc.higher, 0.1); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}
