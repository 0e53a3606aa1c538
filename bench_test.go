package hrtsched

// Benchmark harness: one testing.B benchmark per figure of the paper's
// evaluation (Figures 3-16) and one per ablation from DESIGN.md. Each
// benchmark regenerates its figure at the Quick preset — identical code
// paths to the paper-scale run, reduced grid — and reports the figure's
// headline quantity as a custom metric. Regenerate at paper scale with:
//
//	go run ./cmd/hrtbench -fig N -full
import (
	"strconv"
	"strings"
	"testing"

	"hrtsched/internal/experiments"
	"hrtsched/internal/plan"
	"hrtsched/internal/stats"
)

func benchOpts(i int) experiments.Options {
	return experiments.Options{
		Scale:   experiments.Quick,
		Seed:    0xbe9c + uint64(i),
		Workers: 4,
	}
}

// runFig runs an experiment once per benchmark iteration and returns the
// last figure for metric extraction.
func runFig(b *testing.B, id string) *stats.Figure {
	b.Helper()
	var fig *stats.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = experiments.Run(id, benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	return fig
}

func seriesMean(fig *stats.Figure, si int) float64 {
	var s stats.Summary
	for _, p := range fig.Series[si].Points {
		s.Add(p.Y)
	}
	return s.Mean()
}

func BenchmarkFig03TimeSync(b *testing.B) {
	fig := runFig(b, "fig3")
	// Worst residual bucket edge with nonzero population.
	var worst float64
	for _, p := range fig.Series[0].Points {
		if p.Y > 0 && p.X > worst {
			worst = p.X
		}
	}
	b.ReportMetric(worst, "worst-bucket-cycles")
}

func BenchmarkFig04Scope(b *testing.B) {
	fig := runFig(b, "fig4")
	b.ReportMetric(fig.Series[0].Points[0].Err*1000, "thread-period-fuzz-ns")
	b.ReportMetric(fig.Series[2].Points[1].Err*1000, "irq-width-fuzz-ns")
}

func BenchmarkFig05Overheads(b *testing.B) {
	fig := runFig(b, "fig5")
	var phi, r415 float64
	for _, p := range fig.Series[0].Points {
		phi += p.Y
	}
	for _, p := range fig.Series[1].Points {
		r415 += p.Y
	}
	b.ReportMetric(phi, "phi-total-cycles")
	b.ReportMetric(r415, "r415-total-cycles")
}

// missEdge extracts the feasibility-edge period (us) from a miss-rate
// figure's note line.
func missEdge(fig *stats.Figure) float64 {
	for _, n := range fig.Notes {
		if !strings.Contains(n, "edge of feasibility") {
			continue
		}
		for _, f := range strings.Fields(n) {
			if v, err := strconv.ParseFloat(f, 64); err == nil && v > 0 {
				return v
			}
		}
	}
	return 0
}

func BenchmarkFig06MissRatePhi(b *testing.B) {
	fig := runFig(b, "fig6")
	b.ReportMetric(missEdge(fig), "feasibility-edge-us")
}

func BenchmarkFig07MissRateR415(b *testing.B) {
	fig := runFig(b, "fig7")
	b.ReportMetric(missEdge(fig), "feasibility-edge-us")
}

func BenchmarkFig08MissTimePhi(b *testing.B) {
	fig := runFig(b, "fig8")
	var worst float64
	for _, s := range fig.Series {
		for _, p := range s.Points {
			if p.Y > worst {
				worst = p.Y
			}
		}
	}
	b.ReportMetric(worst, "worst-mean-miss-us")
}

func BenchmarkFig09MissTimeR415(b *testing.B) {
	fig := runFig(b, "fig9")
	var worst float64
	for _, s := range fig.Series {
		for _, p := range s.Points {
			if p.Y > worst {
				worst = p.Y
			}
		}
	}
	b.ReportMetric(worst, "worst-mean-miss-us")
}

func BenchmarkFig10GroupAdmission(b *testing.B) {
	fig := runFig(b, "fig10")
	for _, s := range fig.Series {
		if s.Label == "group change constraints (avg)" && len(s.Points) > 0 {
			b.ReportMetric(s.Points[len(s.Points)-1].Y, "admit-cycles-at-max-size")
		}
	}
}

func BenchmarkFig11GroupSync8(b *testing.B) {
	fig := runFig(b, "fig11")
	b.ReportMetric(seriesMean(fig, 0), "mean-spread-cycles")
}

func BenchmarkFig12GroupSyncScale(b *testing.B) {
	fig := runFig(b, "fig12")
	b.ReportMetric(seriesMean(fig, 0), "smallest-group-spread-cycles")
	b.ReportMetric(seriesMean(fig, len(fig.Series)-1), "largest-group-spread-cycles")
}

func throttleFlatness(fig *stats.Figure) float64 {
	var s stats.Summary
	for _, p := range fig.Series[0].Points {
		s.Add(p.X * p.Y) // T*u, should be flat
	}
	if s.Mean() == 0 {
		return 0
	}
	return s.Std() / s.Mean()
}

func BenchmarkFig13ThrottleCoarse(b *testing.B) {
	fig := runFig(b, "fig13")
	b.ReportMetric(throttleFlatness(fig), "Tu-cov")
}

func BenchmarkFig14ThrottleFine(b *testing.B) {
	fig := runFig(b, "fig14")
	b.ReportMetric(throttleFlatness(fig), "Tu-cov")
}

func barrierWinFraction(fig *stats.Figure) float64 {
	above, total := 0, 0
	for _, p := range fig.Series[0].Points {
		total++
		if p.Y > p.X {
			above++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(above) / float64(total)
}

func BenchmarkFig15BarrierCoarse(b *testing.B) {
	fig := runFig(b, "fig15")
	b.ReportMetric(barrierWinFraction(fig), "fraction-faster-without-barrier")
}

func BenchmarkFig16BarrierFine(b *testing.B) {
	fig := runFig(b, "fig16")
	b.ReportMetric(barrierWinFraction(fig), "fraction-faster-without-barrier")
}

func BenchmarkAblationEagerVsLazy(b *testing.B) {
	fig := runFig(b, "ablation-eager")
	eager := fig.Series[0].Points
	lazy := fig.Series[1].Points
	b.ReportMetric(eager[len(eager)-1].Y, "eager-missrate-pct")
	b.ReportMetric(lazy[len(lazy)-1].Y, "lazy-missrate-pct")
}

func BenchmarkAblationPhaseCorrection(b *testing.B) {
	fig := runFig(b, "ablation-phase")
	raw := fig.Series[0].Points
	cor := fig.Series[1].Points
	b.ReportMetric(raw[len(raw)-1].Y, "uncorrected-spread-cycles")
	b.ReportMetric(cor[len(cor)-1].Y, "corrected-spread-cycles")
}

func BenchmarkAblationRMvsEDF(b *testing.B) {
	fig := runFig(b, "ablation-rm")
	b.ReportMetric(seriesMean(fig, 0), "edf-admitted-mean")
	b.ReportMetric(seriesMean(fig, 1), "rm-admitted-mean")
}

func BenchmarkAblationInterruptSteering(b *testing.B) {
	fig := runFig(b, "ablation-steering")
	unfiltered := fig.Series[0].Points
	free := fig.Series[2].Points
	b.ReportMetric(unfiltered[len(unfiltered)-1].Y, "unfiltered-missrate-pct")
	b.ReportMetric(free[len(free)-1].Y, "free-missrate-pct")
}

func BenchmarkAblationStealPolicy(b *testing.B) {
	fig := runFig(b, "ablation-steal")
	pts := fig.Series[0].Points
	b.ReportMetric(pts[0].Y, "p2c-makespan-ms")
	b.ReportMetric(pts[len(pts)-1].Y, "nosteal-makespan-ms")
}

func BenchmarkExtCyclicExecutive(b *testing.B) {
	fig := runFig(b, "ext-cyclic")
	pts := fig.Series[0].Points
	b.ReportMetric(pts[0].Y, "edf-invocations-per-ms")
	b.ReportMetric(pts[1].Y, "cyclic-invocations-per-ms")
}

func BenchmarkExtOMPRuntime(b *testing.B) {
	fig := runFig(b, "ext-omp")
	gangBar := fig.Series[1].Points
	gangTimed := fig.Series[2].Points
	b.ReportMetric(gangBar[0].Y, "gang-barrier-fine-ms")
	b.ReportMetric(gangTimed[0].Y, "gang-timed-fine-ms")
}

func BenchmarkAblationAdmitSim(b *testing.B) {
	fig := runFig(b, "ablation-admitsim")
	countMissing := func(si int) (n float64) {
		for _, p := range fig.Series[si].Points {
			if p.Y > 0 {
				n++
			}
		}
		return n
	}
	b.ReportMetric(countMissing(0), "bound-admitted-but-missing")
	b.ReportMetric(countMissing(1), "sim-admitted-but-missing")
}

func BenchmarkExtIsolation(b *testing.B) {
	fig := runFig(b, "ext-isolation")
	holds := 0.0
	for _, n := range fig.Notes {
		if strings.Contains(n, "ISOLATION HOLDS") {
			holds = 1
		}
	}
	b.ReportMetric(holds, "isolation-holds")
	b.ReportMetric(fig.Series[0].Points[2].Y, "legion-tasks-done")
}

// raceEnabled is set by race_enabled_test.go under -race, whose runtime
// makes allocation counts unrepresentative.
var raceEnabled bool

// incrementalBenchSet builds the 64-task harmonic baseline used by the
// incremental-vs-full delta benchmarks: periods over {100,200,400,800} us
// with small distinct slices so the whole set admits with headroom for
// one more task.
func incrementalBenchSet() (plan.Spec, plan.TaskSet, plan.Task) {
	spec := plan.Spec{OverheadNs: 200, UtilizationLimit: 0.99}
	periods := []int64{100_000, 200_000, 400_000, 800_000}
	var set plan.TaskSet
	for i := 0; i < 64; i++ {
		p := periods[i%len(periods)]
		set = append(set, plan.Task{PeriodNs: p, SliceNs: p/128 + int64(i)})
	}
	delta := plan.Task{PeriodNs: 400_000, SliceNs: 500}
	return spec, set, delta
}

// BenchmarkIncrementalSingleTaskDelta measures the retained-state path:
// one add plus one remove of a dividing-period task against a committed
// 64-task set, each answered by patching the demand table.
func BenchmarkIncrementalSingleTaskDelta(b *testing.B) {
	spec, set, delta := incrementalBenchSet()
	inc := plan.NewIncremental(spec)
	if v := inc.TryGang(set); !v.Admit {
		b.Fatalf("baseline set rejected: %+v", v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := inc.Add(delta); !v.Admit {
			b.Fatalf("delta rejected: %+v", v)
		}
		if _, found := inc.Remove(delta); !found {
			b.Fatal("delta not found for removal")
		}
	}
	b.StopTimer()
	if inc.Stats().IncrementalOps == 0 {
		b.Fatalf("deltas never took the incremental path: %+v", inc.Stats())
	}
}

// BenchmarkFullReanalysisSingleTaskDelta is the same decision answered the
// stateless way: a full Analyze of all 65 tasks per delta.
func BenchmarkFullReanalysisSingleTaskDelta(b *testing.B) {
	spec, set, delta := incrementalBenchSet()
	candidate := append(append(plan.TaskSet{}, set...), delta)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := plan.Analyze(spec, candidate); !v.Admit {
			b.Fatalf("candidate rejected: %+v", v)
		}
	}
}

// TestIncrementalDeltaTakesPatchPath: an add plus a remove of a
// dividing-period task on the committed 64-task set are both answered by
// patching the retained state — two incremental ops, no full analysis —
// and the steady-state cycle allocates nothing.
func TestIncrementalDeltaTakesPatchPath(t *testing.T) {
	spec, set, delta := incrementalBenchSet()
	inc := plan.NewIncremental(spec)
	if v := inc.TryGang(set); !v.Admit {
		t.Fatalf("baseline set rejected: %+v", v)
	}
	cycle := func() {
		if v := inc.Add(delta); !v.Admit {
			t.Fatalf("delta rejected: %+v", v)
		}
		if _, found := inc.Remove(delta); !found {
			t.Fatal("delta not found for removal")
		}
	}
	before := inc.Stats()
	cycle()
	after := inc.Stats()
	if after.IncrementalOps != before.IncrementalOps+2 || after.FullAnalyses != before.FullAnalyses {
		t.Fatalf("add+remove did not take the patch path twice: %+v -> %+v", before, after)
	}
	if raceEnabled {
		return // the race runtime's own allocations are not the engine's
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("add+remove allocates %v per cycle in steady state, want 0", allocs)
	}
}
