// Command simsoak drives the internal/sim deterministic simulation
// harness over a range of seeds — the long-running companion to the
// bounded TestSim sweep. Every seed expands into a randomized workload
// of jobs and pipelines with injected faults, crashes and journal
// tears; the harness checks stack-wide invariants and, on the first
// failure, minimizes the scenario and prints a one-line repro before
// exiting nonzero.
//
// Usage:
//
//	simsoak -seeds 500            # seeds 1..500
//	simsoak -start 12000 -seeds 100
//	simsoak -seed 282             # one seed, verbose verdict
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/sched"
	"repro/internal/sim"
)

func main() {
	var (
		seeds   = flag.Int("seeds", 100, "number of consecutive seeds to run")
		start   = flag.Uint64("start", 1, "first seed")
		oneSeed = flag.Int64("seed", -1, "run exactly this seed and print its verdict")
		budget  = flag.Int("shrink-budget", 60, "max harness runs the shrinking pass may spend")
		timeout = flag.Duration("timeout", 0, "per-phase settle guard (default 60s)")
		verbose = flag.Bool("v", false, "print every seed's verdict line")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "simsoak: unexpected argument %q (all options are flags)\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	opts := sim.CheckOptions{Scenes: sched.NewSceneCache(), Timeout: *timeout}

	if *oneSeed >= 0 {
		v, err := sim.Check(sim.FromSeed(uint64(*oneSeed)), opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simsoak: %v\n", err)
			os.Exit(2)
		}
		fmt.Print(v.String())
		if !v.OK() {
			os.Exit(1)
		}
		return
	}

	began := time.Now()
	for i := 0; i < *seeds; i++ {
		seed := *start + uint64(i)
		v, err := sim.Check(sim.FromSeed(seed), opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simsoak: seed %d: %v\n", seed, err)
			os.Exit(2)
		}
		if v.OK() {
			if *verbose {
				fmt.Printf("seed %d: ok\n", seed)
			} else if (i+1)%50 == 0 {
				fmt.Printf("simsoak: %d/%d seeds ok (%.1fs)\n", i+1, *seeds, time.Since(began).Seconds())
			}
			continue
		}
		fmt.Printf("seed %d: FAILED — shrinking...\n", seed)
		res, err := sim.Minimize(sim.FromSeed(seed), opts, *budget)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simsoak: shrink: %v\n%s", err, v.String())
			os.Exit(1)
		}
		fmt.Print(res.Report())
		os.Exit(1)
	}
	fmt.Printf("simsoak: %d seeds ok in %.1fs\n", *seeds, time.Since(began).Seconds())
}
