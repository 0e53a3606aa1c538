// Command sweep runs a single BSP benchmark configuration at arbitrary
// parameters — the building block of Figures 13-16 — and prints the
// result row: utilization, execution time, misses, skew, and the
// with/without-barrier comparison when requested. -json switches the row
// to one machine-readable JSON object per line (text stays the default).
//
// With -targets the command becomes a distributed what-if sweep driver
// instead: it fans a (model x utilization x seed) scenario grid over the
// listed hrtd daemons' POST /v1/simulate endpoints with bounded
// concurrency through internal/client, backs off their 429/503 sheds for
// the server's Retry-After, and merges the result rows in deterministic
// grid order, closing with per-(model,util) error-bar summaries (mean ±
// std of survival probability across seeds).
// Because every cell's seed is in the request, rerunning the same grid
// against the same fleet reproduces the same rows byte for byte.
//
// Usage:
//
//	sweep -p 64 -ne 8192 -nc 8 -nw 16 -n 20 -period 1000 -slicepct 50
//	sweep -p 255 -fine -compare            # with vs without barrier
//	sweep -p 64 -aperiodic                 # non-real-time reference
//	sweep -targets 127.0.0.1:8080 -models wcet,full-random -utils 0.5,0.8
//	sweep -targets $(cat /tmp/a.addr),$(cat /tmp/b.addr) -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hrtsched/internal/bsp"
	"hrtsched/internal/core"
	"hrtsched/internal/machine"
	"hrtsched/internal/whatif"
)

func main() {
	var (
		p        = flag.Int("p", 64, "benchmark threads (CPUs 1..p)")
		ne       = flag.Int("ne", 8192, "elements per CPU")
		nc       = flag.Int("nc", 8, "computations per element")
		nw       = flag.Int("nw", 16, "remote writes per iteration")
		n        = flag.Int("n", 20, "iterations")
		fine     = flag.Bool("fine", false, "use the finest-granularity preset")
		coarse   = flag.Bool("coarse", false, "use the coarsest-granularity preset")
		periodUs = flag.Int64("period", 1000, "period in microseconds")
		slicePct = flag.Int64("slicepct", 50, "slice as percent of period")
		aper     = flag.Bool("aperiodic", false, "run without real-time constraints")
		compare  = flag.Bool("compare", false, "run with AND without the barrier")
		seed     = flag.Uint64("seed", 11, "random seed")
		asJSON   = flag.Bool("json", false, "print machine-readable JSON rows instead of text")

		// Distributed what-if sweep flags (active with -targets).
		targetsCSV = flag.String("targets", "", "comma-separated hrtd host:port list; fans a what-if grid over their /v1/simulate")
		modelsCSV  = flag.String("models", "wcet,full-random,half-random", "comma-separated execution models for the grid")
		utilsCSV   = flag.String("utils", "0.5,0.7,0.9", "comma-separated task-set utilizations for the grid")
		gridSeeds  = flag.Int("grid-seeds", 3, "seeds per (model,util) grid cell")
		reps       = flag.Int("reps", 20, "replications per scenario")
		hypers     = flag.Int("hyperperiods", 4, "hyperperiods simulated per replication")
		faultsCSV  = flag.String("faults", "", "comma-separated fault presets applied to every grid scenario")
		conc       = flag.Int("conc", 4, "concurrent in-flight /v1/simulate requests")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "sweep: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		fail("unexpected arguments: %v", flag.Args())
	}

	if *targetsCSV != "" {
		targets := splitCSV(*targetsCSV)
		models := splitModels(*modelsCSV)
		var faults []string
		if *faultsCSV != "" {
			faults = splitCSV(*faultsCSV)
		}
		var utils []float64
		for _, s := range splitCSV(*utilsCSV) {
			u, err := strconv.ParseFloat(s, 64)
			if err != nil || u <= 0 || u > 1 {
				fail("-utils entries must be in (0,1] (got %q)", s)
			}
			utils = append(utils, u)
		}
		if len(targets) == 0 || len(models) == 0 || len(utils) == 0 {
			fail("-targets, -models and -utils must be non-empty")
		}
		for _, m := range models {
			if _, err := whatif.ParseModel(m); err != nil {
				fail("%v", err)
			}
		}
		if *gridSeeds <= 0 || *reps <= 0 || *conc <= 0 {
			fail("-grid-seeds, -reps and -conc must be positive")
		}
		if *hypers <= 0 || *hypers > whatif.MaxHyperperiods {
			fail("-hyperperiods must be in [1,%d] (got %d)", whatif.MaxHyperperiods, *hypers)
		}
		if *periodUs <= 0 {
			fail("-period must be positive microseconds (got %d)", *periodUs)
		}
		if failed := runSweep(targets, models, utils, *gridSeeds, *reps, *hypers,
			*periodUs*1000, faults, *conc, *asJSON); failed > 0 {
			fmt.Fprintf(os.Stderr, "sweep: %d grid cells failed\n", failed)
			os.Exit(1)
		}
		return
	}

	if *p <= 0 {
		fail("-p must be positive (got %d)", *p)
	}
	if *n <= 0 {
		fail("-n must be positive (got %d)", *n)
	}
	if *ne <= 0 || *nc <= 0 || *nw < 0 {
		fail("-ne and -nc must be positive, -nw non-negative (got ne=%d nc=%d nw=%d)", *ne, *nc, *nw)
	}
	if *periodUs <= 0 {
		fail("-period must be positive microseconds (got %d)", *periodUs)
	}
	if *slicePct <= 0 || *slicePct > 100 {
		fail("-slicepct must be in (0,100] (got %d)", *slicePct)
	}
	if *fine && *coarse {
		fail("-fine and -coarse are mutually exclusive")
	}

	params := bsp.Params{P: *p, NE: *ne, NC: *nc, NW: *nw, N: *n,
		FirstCPU: 1, UseBarrier: true, PhaseCorrection: true}
	if *fine {
		params = bsp.FineGrain(*p, *n)
	}
	if *coarse {
		params = bsp.CoarseGrain(*p, *n)
	}
	if *aper {
		params.Constraints = core.AperiodicConstraints(50)
	} else {
		periodNs := *periodUs * 1000
		params.Constraints = core.PeriodicConstraints(0, periodNs, periodNs**slicePct/100)
	}

	run := func(useBarrier bool) bsp.Result {
		spec := machine.PhiKNL().Scaled(*p + 1)
		m := machine.New(spec, *seed)
		k := core.Boot(m, core.DefaultConfig(spec))
		pp := params
		pp.UseBarrier = useBarrier
		return bsp.New(k, pp).Run(1 << 32)
	}

	print := func(tag string, r bsp.Result) {
		if r.GroupFailed {
			fmt.Fprintf(os.Stderr, "%s: group admission FAILED\n", tag)
			os.Exit(1)
		}
		if *asJSON {
			row := struct {
				Tag        string  `json:"tag"`
				Util       float64 `json:"util"`
				ExecS      float64 `json:"exec_s"`
				Iterations int64   `json:"iterations"`
				Misses     int64   `json:"misses"`
				MaxSkew    int64   `json:"max_skew"`
				WriteErrs  int64   `json:"write_errors"`
			}{tag, r.Params.Constraints.Utilization(), float64(r.ExecNs) / 1e9,
				r.Iterations, r.Misses, r.MaxSkew, r.WriteErrors}
			enc := json.NewEncoder(os.Stdout)
			enc.Encode(row) //nolint:errcheck
			return
		}
		fmt.Printf("%-16s util=%.2f exec=%.4fs iterations=%d misses=%d skew=%d writeErrs=%d\n",
			tag, r.Params.Constraints.Utilization(), float64(r.ExecNs)/1e9,
			r.Iterations, r.Misses, r.MaxSkew, r.WriteErrors)
	}

	if *compare && !*aper {
		with := run(true)
		without := run(false)
		print("with-barrier", with)
		print("without-barrier", without)
		if without.ExecNs > 0 && !*asJSON {
			fmt.Printf("barrier removal speedup: %.2fx\n",
				float64(with.ExecNs)/float64(without.ExecNs))
		}
		return
	}
	print("run", run(params.UseBarrier || *aper))
}

// splitModels splits the -models comma list. A "random-a,b" model
// contains a comma of its own; since no model name starts with a digit,
// a fragment that does is glued back onto the previous entry, so
// "wcet,random-1.0,1.3" parses as two models.
func splitModels(s string) []string {
	var out []string
	for _, part := range splitCSV(s) {
		if len(out) > 0 && part[0] >= '0' && part[0] <= '9' {
			out[len(out)-1] += "," + part
			continue
		}
		out = append(out, part)
	}
	return out
}

// splitCSV splits a comma list, trimming blanks and dropping empties.
func splitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
