package whatif

import (
	"fmt"
	"strings"

	"hrtsched/internal/stats"
)

// TaskReport aggregates one task's observations across all replications.
type TaskReport struct {
	Name     string `json:"name"`
	PeriodNs int64  `json:"period_ns"`
	SliceNs  int64  `json:"slice_ns"`
	WcetNs   int64  `json:"wcet_ns"`
	// Arrivals and Misses are scheduler-counted totals summed over
	// replications; MissRate is their ratio.
	Arrivals int64 `json:"arrivals"`
	Misses   int64 `json:"misses"`
	// LateJobs counts jobs whose observed response time exceeded the
	// period — demand-side overruns the scheduler's supply-side Misses
	// counter cannot see.
	LateJobs      int64   `json:"late_jobs"`
	MissRate      float64 `json:"miss_rate"`
	MaxMissStreak int     `json:"max_miss_streak"`
	Degrades      int64   `json:"degrades"`
	Readmits      int64   `json:"readmits"`
	// Response-time distribution of completed jobs (ns from period
	// arrival to completion), merged across replications.
	RespP50Ns  float64          `json:"resp_p50_ns"`
	RespP99Ns  float64          `json:"resp_p99_ns"`
	RespMeanNs float64          `json:"resp_mean_ns"`
	RespMaxNs  float64          `json:"resp_max_ns"`
	RespHist   *stats.Histogram `json:"resp_hist,omitempty"`
}

// Disagreement counts replications whose observed outcome contradicts the
// analytical admission verdict — the gap Pinho 2023 names between
// analytical admission and observed timing variability.
type Disagreement struct {
	// AdmittedMissedReps: the analysis admitted the set, yet the
	// replication observed at least one scheduler miss or late job. An
	// ADMIT rules out scheduler misses (Report.TotalMisses) only; at the
	// default WcetNs = SliceNs a job's record step finishes it late.
	AdmittedMissedReps int `json:"admitted_missed_reps"`
	// RejectedCleanReps: the analysis rejected the set, yet the
	// replication completed without a single miss.
	RejectedCleanReps int `json:"rejected_clean_reps"`
}

// Report is the aggregated answer to one what-if question. Equal
// (Scenario, Seed) inputs produce byte-identical reports — both the JSON
// encoding (fixed field order, no maps) and Render's text.
type Report struct {
	Scenario      string   `json:"scenario,omitempty"`
	Machine       string   `json:"machine"`
	CPUs          int      `json:"cpus"`
	Model         string   `json:"model"`
	Faults        []string `json:"faults,omitempty"`
	Degrade       string   `json:"degrade"`
	Seed          uint64   `json:"seed"`
	Replications  int      `json:"replications"`
	Hyperperiods  int      `json:"hyperperiods"`
	HyperperiodNs int64    `json:"hyperperiod_ns"`

	// Analytical verdict for the task set on this platform: each CPU's
	// partition is analyzed on its own, and the set is admitted when every
	// CPU admits its partition. AdmitReason is the first rejecting CPU's
	// reason. Utilization sums every task; CPUUtilization splits it by CPU.
	Utilization    float64   `json:"utilization"`
	CPUUtilization []float64 `json:"cpu_utilization"`
	Admit          bool      `json:"admit"`
	AdmitReason    string    `json:"admit_reason"`

	// Observed outcomes.
	SurvivedReps  int          `json:"survived_reps"`
	SurvivalProb  float64      `json:"survival_prob"`
	TotalMisses   int64        `json:"total_misses"`
	TotalLateJobs int64        `json:"total_late_jobs"`
	Disagreement  Disagreement `json:"disagreement"`
	Tasks         []TaskReport `json:"tasks"`

	EngineSteps         uint64 `json:"engine_steps"`
	InvariantViolations int    `json:"invariant_violations"`
}

// Render returns the deterministic text form: fixed iteration order, fixed
// float precision, no timestamps.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "whatif %q machine=%s cpus=%d model=%s faults=[%s] degrade=%s seed=%d\n",
		r.Scenario, r.Machine, r.CPUs, r.Model, strings.Join(r.Faults, ","), r.Degrade, r.Seed)
	fmt.Fprintf(&b, "  reps=%d hyperperiods=%d hyperperiod=%dns\n",
		r.Replications, r.Hyperperiods, r.HyperperiodNs)
	fmt.Fprintf(&b, "  verdict: admit=%t reason=%s util=%.4f cpu-util=%.4f\n",
		r.Admit, r.AdmitReason, r.Utilization, r.CPUUtilization)
	fmt.Fprintf(&b, "  observed: survived=%d/%d prob=%.4f misses=%d late=%d admitted-missed=%d rejected-clean=%d\n",
		r.SurvivedReps, r.Replications, r.SurvivalProb, r.TotalMisses,
		r.TotalLateJobs, r.Disagreement.AdmittedMissedReps, r.Disagreement.RejectedCleanReps)
	for _, t := range r.Tasks {
		fmt.Fprintf(&b, "  task %-12s period=%dns slice=%dns wcet=%dns arrivals=%d misses=%d late=%d rate=%.4f streak=%d degrades=%d readmits=%d\n",
			t.Name, t.PeriodNs, t.SliceNs, t.WcetNs, t.Arrivals, t.Misses, t.LateJobs, t.MissRate,
			t.MaxMissStreak, t.Degrades, t.Readmits)
		fmt.Fprintf(&b, "       resp p50=%.0fns p99=%.0fns mean=%.0fns max=%.0fns n=%d\n",
			t.RespP50Ns, t.RespP99Ns, t.RespMeanNs, t.RespMaxNs, histN(t.RespHist))
	}
	fmt.Fprintf(&b, "  engine steps=%d invariant-violations=%d\n",
		r.EngineSteps, r.InvariantViolations)
	return b.String()
}

func histN(h *stats.Histogram) int64 {
	if h == nil {
		return 0
	}
	return h.N()
}
