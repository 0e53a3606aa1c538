// Command hrtperf is the end-to-end benchmark for hrtd. It launches the
// daemon as a child process, drives one of four workloads at it over
// loopback HTTP from two closed-loop connections, checks every reply, and
// prints each metric by name with its unit. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics.
//
// bench/run.sh builds hrtd and hrtperf from the checkout and runs it from
// the repository root:
//
//	bash bench/run.sh --workload admit-query --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload fleet-batch --seed 1 --seconds 20 --trace 1 -o trace.json
//
// With --trace 0 a run reports the end-to-end metrics of its workload.
// With --trace 1 it reports every per-layer metric: for each workload a
// short socket phase (the daemon's /metrics deltas and client timings),
// then an in-process ladder timing calls into each layer on the same
// generated inputs. -o writes the full result: run metadata, phases,
// ungated metrics and spans.
//
// Compare result files of two commits (see bench/README.md):
//
//	hrtperf -compare parent-1.json parent-2.json -- change-1.json change-2.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name      = flag.String("workload", "", "workload to run (see below)")
		seed      = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds   = flag.Float64("seconds", 20, "measured seconds of an end-to-end run; total measured seconds of a trace run")
		trace     = flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
		hrtd      = flag.String("hrtd", "", "hrtd binary to launch (bench/run.sh builds it)")
		work      = flag.String("work", filepath.Join(".bench_build", "work"), "directory for daemon data and address files")
		out       = flag.String("o", "", "also write the full result to this JSON file")
		compare   = flag.Bool("compare", false, "compare result files: parent.json... -- change.json...")
		benchFile = flag.String("benchmark", "BENCHMARK.json", "file holding the bounds -compare judges by")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: hrtperf -hrtd BIN -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-o FILE]\n"+
			"       hrtperf -compare parent.json... -- change.json...\n\nworkloads:\n%s\nflags:\n", describeWorkloads())
		flag.PrintDefaults()
	}
	flag.Parse()
	if *compare {
		return runCompare(os.Stdout, *benchFile, flag.Args())
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "hrtperf: "+format+"\n", args...)
		flag.Usage()
		return 2
	}
	w := workloadByName(*name)
	switch {
	case flag.NArg() > 0:
		return usage("unexpected arguments %v", flag.Args())
	case w == nil:
		return usage("unknown workload %q", *name)
	case *seconds <= 0:
		return usage("-seconds must be positive")
	case *trace != 0 && *trace != 1:
		return usage("-trace must be 0 or 1")
	case *hrtd == "":
		return usage("-hrtd is required")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "hrtperf: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "hrtperf: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := runConfig{
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		setups:  5,
		dir:     dir,
	}
	l := procLauncher{bin: *hrtd}
	var rep *report
	if *trace == 1 {
		rep, err = runTrace(ctx, l, cfg)
	} else {
		rep, err = runEndToEnd(ctx, l, w, cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hrtperf: %s: %v\n", w.name, err)
		return 1
	}
	rep.Workload = w.name
	printReport(rep)
	if *out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hrtperf: write -o: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hrtperf: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// printReport prints every metric by name with its unit, then the checks.
func printReport(rep *report) {
	defs := endToEnd
	if rep.Trace == 1 {
		defs = perLayerDefs()
	}
	for _, d := range defs {
		m := rep.Metrics[d.name]
		fmt.Printf("%-16s %-48s %14.4f %s\n", rep.Workload, d.name, m.Value, m.Unit)
	}
	names := make([]string, 0, len(rep.Ungated))
	for name := range rep.Ungated {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		m := rep.Ungated[name]
		fmt.Printf("%-16s %-48s %14.4f %s (ungated)\n", rep.Workload, name, m.Value, m.Unit)
	}
	for _, p := range rep.Phases {
		fmt.Printf("%-16s phase %-42s %14.3f s\n", rep.Workload, p.Name, p.Seconds)
	}
	fmt.Printf("%-16s checks: correct=%v attempted=%d failed=%d\n", rep.Workload, rep.Correct, rep.Attempted, rep.Failed)
	for _, f := range rep.Failures {
		fmt.Printf("%-16s failure: %s\n", rep.Workload, f)
	}
}
