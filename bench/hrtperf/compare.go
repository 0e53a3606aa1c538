package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmark(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// runCompare judges change result files against parent result files, per
// (workload, end-to-end metric), and returns 1 if any pair regressed.
// args are the parent files, "--", then the change files.
func runCompare(w io.Writer, benchPath string, args []string) int {
	i := slices.Index(args, "--")
	if i < 1 || i == len(args)-1 {
		fmt.Fprintln(os.Stderr, "hrtperf: -compare wants parent.json... -- change.json...")
		return 2
	}
	bf, err := readBenchmark(benchPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hrtperf: %v\n", err)
		return 2
	}
	parent, err := loadRuns(args[:i])
	if err != nil {
		fmt.Fprintf(os.Stderr, "hrtperf: %v\n", err)
		return 2
	}
	change, err := loadRuns(args[i+1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "hrtperf: %v\n", err)
		return 2
	}

	regressed := false
	fmt.Fprintf(w, "%-16s %-18s %-30s %-30s %9s %7s  %s\n",
		"workload", "metric", "parent q1/median/q3", "change q1/median/q3", "worse", "bound", "verdict")
	for _, wl := range sortedKeys(parent) {
		for _, m := range bf.EndToEnd {
			p, c := parent[wl][m.Name], change[wl][m.Name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v, worse := judge(p, c, m.Better == "higher", m.Bound)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(w, "%-16s %-18s %-30s %-30s %+8.1f%% %6.1f%%  %s\n",
				wl, m.Name, summary(p), summary(c), 100*worse, 100*m.Bound, v)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// loadRuns reads result files into workload -> metric -> values, in file
// order (pairs are formed by position).
func loadRuns(paths []string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r struct {
			Workload string            `json:"workload"`
			Correct  bool              `json:"correct"`
			Metrics  map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: run failed its correctness checks", path)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) computes them (the exclusive
// method), so spreads here agree with a Python reading of the same runs.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := sortedCopy(values)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

func summary(v []float64) string {
	q1, q2, q3 := quartiles(v)
	return fmt.Sprintf("%.4g/%.4g/%.4g", q1, q2, q3)
}

// judge applies the choosing-metrics rules to one (workload, metric) pair:
//   - when the parent's own spread (quartile distance over median) exceeds
//     the bound the pair is unresolved, unless every change run beats
//     every parent run;
//   - a change median worse than the parent's by more than the bound is a
//     regression;
//   - a gain needs the change to win at least nine tenths of the pairs
//     (ties count for neither) and the medians to differ by more than the
//     parent's quartile distance;
//   - anything else is unchanged.
//
// worse is the change median's relative worsening (negative when better).
func judge(p, c []float64, higherBetter bool, bound float64) (verdict string, worse float64) {
	better := func(x, y float64) bool {
		if higherBetter {
			return x > y
		}
		return x < y
	}
	pq1, pm, pq3 := quartiles(p)
	_, cm, _ := quartiles(c)
	worse = (cm - pm) / pm
	if higherBetter {
		worse = -worse
	}
	// Every change run beats every parent run when the change's worst run
	// beats the parent's best.
	allBetter := better(slices.Max(c), slices.Min(p))
	if higherBetter {
		allBetter = better(slices.Min(c), slices.Max(p))
	}
	pairs, wins := min(len(p), len(c)), 0
	for i := range pairs {
		if better(c[i], p[i]) {
			wins++
		}
	}
	switch {
	case (pq3-pq1)/pm > bound:
		if allBetter {
			return "improved", worse
		}
		return "unresolved", worse
	case worse > bound:
		return "regressed", worse
	case worse < 0 && float64(wins) >= 0.9*float64(pairs) && math.Abs(cm-pm) > pq3-pq1:
		return "improved", worse
	default:
		return "unchanged", worse
	}
}
