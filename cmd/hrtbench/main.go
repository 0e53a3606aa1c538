// Command hrtbench runs the reproduction experiments: one harness per
// figure of the paper's evaluation (Figures 3-16) plus the ablations.
//
// Usage:
//
//	hrtbench -list
//	hrtbench -fig 6                 # quick preset of Figure 6
//	hrtbench -fig 13 -full          # full-scale (255-CPU) sweep
//	hrtbench -exp ablation-eager    # named experiment
//	hrtbench -all                   # every experiment, quick preset
//	hrtbench -fig 6 -plot           # add an ASCII scatter of the series
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hrtsched/internal/experiments"
)

func main() {
	var (
		fig     = flag.Int("fig", 0, "figure number to reproduce (3-16)")
		exp     = flag.String("exp", "", "experiment id (see -list)")
		all     = flag.Bool("all", false, "run every registered experiment")
		full    = flag.Bool("full", false, "full-scale (paper-size) parameters")
		list    = flag.Bool("list", false, "list experiment ids")
		seed    = flag.Uint64("seed", 0x5eed, "root random seed")
		workers = flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
		plot    = flag.Bool("plot", false, "render an ASCII scatter plot too")
	)
	flag.Parse()

	// Every flag is validated up front: an invalid invocation exits 2 with
	// a usage line before any simulation starts.
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "hrtbench: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		fail("unexpected arguments: %v", flag.Args())
	}
	if *workers < 0 {
		fail("-workers must be non-negative (got %d)", *workers)
	}
	selectors := 0
	for _, on := range []bool{*all, *fig != 0, *exp != "", *list} {
		if on {
			selectors++
		}
	}
	if selectors > 1 {
		fail("-fig, -exp, -all, and -list are mutually exclusive")
	}
	if *fig != 0 && (*fig < 3 || *fig > 16) {
		fail("-fig must be in 3..16 (got %d); see -list", *fig)
	}
	if *exp != "" {
		known := false
		for _, id := range experiments.IDs() {
			if id == *exp {
				known = true
				break
			}
		}
		if !known {
			fail("unknown experiment %q; see -list", *exp)
		}
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	opts := experiments.Options{Scale: experiments.Quick, Seed: *seed, Workers: *workers}
	if *full {
		opts.Scale = experiments.Full
	}

	var ids []string
	switch {
	case *all:
		ids = experiments.IDs()
	case *fig != 0:
		ids = []string{fmt.Sprintf("fig%d", *fig)}
	case *exp != "":
		ids = []string{*exp}
	default:
		fail("specify -fig N, -exp ID, -all, or -list")
	}

	for _, id := range ids {
		start := time.Now()
		figure, err := experiments.Run(id, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(experiments.Block(figure))
		if *plot {
			fmt.Print(figure.Plot(72, 20))
		}
		fmt.Println()
		fmt.Fprintf(os.Stderr, "(%s completed in %v)\n", id, time.Since(start).Round(time.Millisecond))
	}
}
