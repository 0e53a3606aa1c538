package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"hrtsched/internal/client"
	"hrtsched/internal/serve"
	"hrtsched/internal/sim"
	"hrtsched/internal/stats"
	"hrtsched/internal/whatif"
)

// sweepRow is one cell of the distributed what-if grid: a (model,
// utilization, seed) scenario and the report highlights it produced.
// Fixed field order keeps -json output byte-stable.
type sweepRow struct {
	Scenario     string  `json:"scenario"`
	Model        string  `json:"model"`
	Util         float64 `json:"util"`
	Seed         uint64  `json:"seed"`
	Target       string  `json:"target"`
	Admit        bool    `json:"admit"`
	Replications int     `json:"replications"`
	SurvivedReps int     `json:"survived_reps"`
	SurvivalProb float64 `json:"survival_prob"`
	Misses       int64   `json:"misses"`
	LateJobs     int64   `json:"late_jobs"`
	AdmittedMiss int     `json:"admitted_missed_reps"`
	RejectedOK   int     `json:"rejected_clean_reps"`
	Err          string  `json:"error,omitempty"`
}

// sweepSummary aggregates one (model, utilization) grid line across its
// seeds: the error bar for the EXPERIMENTS.md stochastic-sweep plot.
type sweepSummary struct {
	Model    string  `json:"model"`
	Util     float64 `json:"util"`
	Seeds    int     `json:"seeds"`
	ProbMean float64 `json:"survival_prob_mean"`
	ProbStd  float64 `json:"survival_prob_std"`
	Misses   int64   `json:"misses_total"`
	Late     int64   `json:"late_jobs_total"`
}

// sweepScenario builds the grid cell's scenario: a provisioning
// question. Two tasks with FIXED nominal demand (WCETs of 27% and 18%
// of the period, 45% combined) share ONE CPU, and the swept utilization
// is the bandwidth RESERVED for them, split 60/40. The util axis is
// therefore headroom: at 0.45 the reservations equal the WCETs and any
// overrun is fatal; at 0.9 each task holds twice its nominal demand.
// The reservation clips hard — a job that exhausts its slice is parked
// until its next arrival, never absorbed into idle bandwidth — so
// overrun models (random-a,b with b > 1) trace how much headroom buys
// back survival while WCET-bounded models stay flat at 1.0. The horizon
// spans several hyperperiods because an overrunning job completes in a
// LATER period; a one-hyperperiod horizon ends before any overrun
// becomes observable. The scenario name encodes the cell so rendezvous
// routing spreads the grid across shard groups.
func sweepScenario(model string, util float64, periodNs int64, reps, hyperperiods int, faults []string, idx int) whatif.Scenario {
	w1 := int64(0.27 * float64(periodNs))
	w2 := int64(0.18 * float64(periodNs))
	s1 := int64(util * 0.6 * float64(periodNs))
	s2 := int64(util * 0.4 * float64(periodNs))
	return whatif.Scenario{
		Name:   fmt.Sprintf("sweep-%d-%s-u%.2f", idx, model, util),
		CPUs:   1,
		Model:  model,
		Faults: faults,
		Tasks: []whatif.Task{
			{PeriodNs: periodNs, SliceNs: s1, WcetNs: w1, CPU: 0},
			{PeriodNs: periodNs, SliceNs: s2, WcetNs: w2, CPU: 0},
		},
		Replications: reps,
		Hyperperiods: hyperperiods,
	}
}

// postSimulate runs one grid cell against one target, backing off after
// a 429/503 shed (up to 8 retries) so a busy group sheds without losing
// the cell.
func postSimulate(c *client.Client, rng *sim.Rand, sc whatif.Scenario, seed uint64) (*whatif.Report, error) {
	req := serve.SimulateRequest{Scenario: sc, Seed: seed}
	for attempt := 0; ; attempt++ {
		var rep whatif.Report
		err := c.Post(context.Background(), "/v1/simulate", req, &rep)
		if err == nil {
			return &rep, nil
		}
		if !client.Shed(err) || attempt >= 8 {
			return nil, err
		}
		time.Sleep(client.Backoff(err, rng))
	}
}

// runSweep fans the (model x util x seed) grid over the targets with
// bounded concurrency, then prints the merged rows in deterministic grid
// order plus per-(model,util) error-bar summaries. Returns the number of
// failed cells.
func runSweep(targets, models []string, utils []float64, seeds, reps, hyperperiods int,
	periodNs int64, faults []string, conc int, asJSON bool) int {
	clients := make([]*client.Client, len(targets))
	for i, t := range targets {
		clients[i] = client.New("http://"+t, 120*time.Second, conc)
	}
	type cell struct {
		model string
		util  float64
		seed  uint64
		idx   int
	}
	var cells []cell
	for _, mdl := range models {
		for _, u := range utils {
			for s := 0; s < seeds; s++ {
				cells = append(cells, cell{mdl, u, uint64(s + 1), len(cells)})
			}
		}
	}
	rows := make([]sweepRow, len(cells))
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func(i int, c cell) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			t := c.idx % len(targets)
			sc := sweepScenario(c.model, c.util, periodNs, reps, hyperperiods, faults, c.idx)
			row := sweepRow{Scenario: sc.Name, Model: c.model, Util: c.util,
				Seed: c.seed, Target: targets[t]}
			rep, err := postSimulate(clients[t], sim.NewRand(uint64(c.idx)), sc, c.seed)
			if err != nil {
				row.Err = err.Error()
			} else {
				row.Admit = rep.Admit
				row.Replications = rep.Replications
				row.SurvivedReps = rep.SurvivedReps
				row.SurvivalProb = rep.SurvivalProb
				row.Misses = rep.TotalMisses
				row.LateJobs = rep.TotalLateJobs
				row.AdmittedMiss = rep.Disagreement.AdmittedMissedReps
				row.RejectedOK = rep.Disagreement.RejectedCleanReps
			}
			rows[i] = row
		}(i, c)
	}
	wg.Wait()

	// Merge: rows are already in grid order (model-major, then util, then
	// seed); summaries aggregate each (model, util) line across its seeds.
	var summaries []sweepSummary
	byLine := map[string]*stats.Summary{}
	lineTotals := map[string]*sweepSummary{}
	var lineKeys []string
	failed := 0
	for _, row := range rows {
		if row.Err != "" {
			failed++
			continue
		}
		key := row.Model + "\x00" + strconv.FormatFloat(row.Util, 'g', -1, 64)
		if byLine[key] == nil {
			byLine[key] = &stats.Summary{}
			lineTotals[key] = &sweepSummary{Model: row.Model, Util: row.Util}
			lineKeys = append(lineKeys, key)
		}
		byLine[key].Add(row.SurvivalProb)
		lineTotals[key].Seeds++
		lineTotals[key].Misses += row.Misses
		lineTotals[key].Late += row.LateJobs
	}
	sort.Strings(lineKeys)
	for _, key := range lineKeys {
		s := lineTotals[key]
		s.ProbMean = byLine[key].Mean()
		s.ProbStd = byLine[key].Std()
		summaries = append(summaries, *s)
	}

	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		for _, row := range rows {
			enc.Encode(struct { //nolint:errcheck
				Kind string `json:"kind"`
				sweepRow
			}{"row", row})
		}
		for _, s := range summaries {
			enc.Encode(struct { //nolint:errcheck
				Kind string `json:"kind"`
				sweepSummary
			}{"summary", s})
		}
	} else {
		for _, row := range rows {
			if row.Err != "" {
				fmt.Printf("%-28s model=%-22s util=%.2f seed=%-3d ERROR %s\n",
					row.Scenario, row.Model, row.Util, row.Seed, row.Err)
				continue
			}
			fmt.Printf("%-28s model=%-22s util=%.2f seed=%-3d admit=%-5v survived=%d/%d prob=%.4f misses=%d late=%d\n",
				row.Scenario, row.Model, row.Util, row.Seed, row.Admit,
				row.SurvivedReps, row.Replications, row.SurvivalProb,
				row.Misses, row.LateJobs)
		}
		for _, s := range summaries {
			fmt.Printf("summary model=%-22s util=%.2f seeds=%d survival=%.4f±%.4f misses=%d late=%d\n",
				s.Model, s.Util, s.Seeds, s.ProbMean, s.ProbStd, s.Misses, s.Late)
		}
	}
	return failed
}
