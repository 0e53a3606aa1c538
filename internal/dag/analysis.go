package dag

import (
	"fmt"

	"hrtsched/internal/plan"
)

// NewAnalyzer returns the named RTA plug-in. Accepted names: "classical",
// "alpha-beta" (longest-path-first priorities), and "alpha-beta/<policy>"
// for an explicit priority policy.
func NewAnalyzer(name string) (Analyzer, error) {
	switch name {
	case "", "classical":
		return Classical{}, nil
	case "alpha-beta", "alpha-beta/longest-path-first":
		return AlphaBeta{Policy: LongestPathFirstPolicy{}}, nil
	case "alpha-beta/topo-order":
		return AlphaBeta{Policy: TopoOrderPolicy{}}, nil
	default:
		return nil, fmt.Errorf("dag: unknown analyzer %q (have %v)", name, AnalyzerNames())
	}
}

// AnalyzerNames lists the accepted NewAnalyzer names, sorted.
func AnalyzerNames() []string {
	return []string{"alpha-beta", "alpha-beta/longest-path-first", "alpha-beta/topo-order", "classical"}
}

// Analyze validates t and, when structurally sound, runs rta. The error
// is a *ValidationError on structural rejection; a nil error with
// Result.Admit == false is an analytical rejection.
func Analyze(t *Task, rta Analyzer) (Result, error) {
	if err := t.Validate(); err != nil {
		return Result{}, err
	}
	return rta.Analyze(t), nil
}

// ServerTask derives the periodic server reservation for an admitted DAG:
// one gang-scheduled slice of the response-time bound every period — the
// RT-Gang reduction. Everything downstream of admission (placement,
// durability, replication) sees only this task.
func ServerTask(t *Task, r Result) plan.Task {
	return plan.Task{PeriodNs: t.PeriodNs, SliceNs: r.BoundNs}
}
