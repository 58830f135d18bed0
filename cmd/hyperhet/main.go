// Command hyperhet is the command-line surface of the reproduction: one
// binary over the hyperhet facade with three verbs.
//
//	hyperhet gen    -o scene.hc [-lines N] [-samples N] [-bands N] [-seed N] [-snr dB]
//	                [-format hc|envi] [-interleave bip|bil|bsq] [-quicklook fig1.ppm]
//	hyperhet run    -in scene.hc [-algorithm atdca|ufcls|pct|morph] [-targets N] [-classes N]
//	                [-net sequential|fully-het|fully-homo|part-het|part-homo|thunderhead]
//	                [-cpus N] [-variant hetero|homo] [-trace] [-truth scene.hc.truth.json]
//	hyperhet tables [-table N] [-figure 2] [-all] [-seed N] [-quiet] [-json]
//
// gen writes a synthetic AVIRIS-like World Trade Center scene with a
// ground-truth sidecar (JSON: the planted hot spots and the debris class
// map). run executes one of the paper's four algorithms on a cube file
// (the repository's single-file format or an ENVI .hdr), optionally on a
// simulated parallel platform, and prints the detected targets or the
// class populations — scored against a sidecar given with -truth — under
// the run's virtual-time figures. tables regenerates the evaluation of
// Plaza (CLUSTER 2006), Tables 1-8 and Figure 2, in the paper's layout;
// with no selection -all is assumed, and the Thunderhead study (Table 8,
// Figure 2) is the slowest part, around half a minute. All timings are
// virtual seconds from the platform cost model, deterministic per seed.
//
// Every flag is validated before any file is read or written: a usage
// error exits 2 with the verb's usage, a runtime error exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	hyperhet "repro"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// A verb defines its flags on fs, parses args with parse, and does its
// work; what it returns decides the exit code (see run).
type verb struct {
	name, summary string
	do            func(fs *flag.FlagSet, args []string, stdout, stderr io.Writer) error
}

var verbs = []verb{
	{"gen", "write a synthetic WTC scene, its ground-truth sidecar and a quicklook", gen},
	{"run", "run ATDCA, UFCLS, PCT or MORPH on a cube file", analyze},
	{"tables", "regenerate the paper's Tables 1-8 and Figure 2", tables},
}

// usageError marks a mistake in the command line, as opposed to a failure
// while doing what it asked.
type usageError struct{ error }

func usagef(format string, args ...any) error { return usageError{fmt.Errorf(format, args...)} }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, v := range verbs {
			if v.name != args[0] {
				continue
			}
			fs := flag.NewFlagSet("hyperhet "+v.name, flag.ContinueOnError)
			fs.SetOutput(io.Discard) // a parse failure is reported below, once
			err := v.do(fs, args[1:], stdout, stderr)
			fs.SetOutput(stderr)
			var ue usageError
			switch {
			case err == nil:
				return 0
			case errors.Is(err, flag.ErrHelp):
				fs.Usage()
				return 0
			case errors.As(err, &ue):
				fmt.Fprintf(stderr, "%s: %v\n", fs.Name(), err)
				fs.Usage()
				return 2
			}
			fmt.Fprintf(stderr, "%s: %v\n", fs.Name(), err)
			return 1
		}
		if args[0] != "-h" && args[0] != "-help" && args[0] != "--help" && args[0] != "help" {
			fmt.Fprintf(stderr, "hyperhet: unknown verb %q\n", args[0])
		}
	}
	fmt.Fprintln(stderr, "Usage: hyperhet <verb> [flags]   (hyperhet <verb> -h lists a verb's flags)")
	for _, v := range verbs {
		fmt.Fprintf(stderr, "  %-7s %s\n", v.name, v.summary)
	}
	return 2
}

// parse parses a verb's flags; every option is a flag, so a positional
// argument is a usage error.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	if fs.NArg() > 0 {
		return usagef("unexpected argument %q (all options are flags)", fs.Arg(0))
	}
	return nil
}

// truthSidecar is the JSON document gen writes next to the cube and run
// -truth reads back.
type truthSidecar struct {
	Lines, Samples, Bands int
	Seed                  int64
	HotSpots              []hotSpotJSON
	ClassNames            []string
	// ClassMap is the per-pixel debris class (-1 background), row-major.
	ClassMap []int
}

type hotSpotJSON struct {
	Label        string
	Line, Sample int
	TempF        float64
}

func gen(fs *flag.FlagSet, args []string, stdout, _ io.Writer) error {
	var (
		out    = fs.String("o", "scene.hc", "output cube path (+ .truth.json sidecar)")
		cfg    hyperhet.SceneConfig
		format = fs.String("format", "hc", "output format: hc (single file) or envi (hdr+img pair)")
		il     = fs.String("interleave", "bip", "ENVI interleave: bip, bil or bsq")
		look   = fs.String("quicklook", "", "also write a Figure-1-style false-color PPM to this path")
	)
	fs.IntVar(&cfg.Lines, "lines", 144, "spatial rows")
	fs.IntVar(&cfg.Samples, "samples", 96, "spatial columns")
	fs.IntVar(&cfg.Bands, "bands", 64, "spectral bands")
	fs.Int64Var(&cfg.Seed, "seed", 20010916, "generator seed")
	fs.Float64Var(&cfg.SNRdB, "snr", 0, "per-band SNR in dB (0 = default)")
	if err := parse(fs, args); err != nil {
		return err
	}
	switch {
	case *out == "":
		return usagef("-o must not be empty")
	case cfg.SNRdB < 0:
		return usagef("-snr must be non-negative dB, got %g", cfg.SNRdB)
	case *format != "hc" && *format != "envi":
		return usagef("unknown format %q (want hc or envi)", *format)
	case *il != "bip" && *il != "bil" && *il != "bsq":
		return usagef("unknown interleave %q (want bip, bil or bsq)", *il)
	}
	if err := cfg.Validate(); err != nil {
		return usageError{err}
	}

	sc, err := hyperhet.GenerateScene(cfg)
	if err != nil {
		return err
	}
	wrote := *out
	if *format == "envi" {
		base := strings.TrimSuffix(*out, ".hc")
		err = hyperhet.SaveENVI(sc.Cube, base, hyperhet.Interleave(*il))
		wrote = fmt.Sprintf("%s.hdr + %s.img (%s)", base, base, *il)
	} else {
		err = sc.Cube.Save(*out)
	}
	if err != nil {
		return err
	}
	if *look != "" {
		if err := hyperhet.SaveQuicklook(*look, sc.Cube); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (false-color quicklook)\n", *look)
	}

	truth := truthSidecar{
		Lines: cfg.Lines, Samples: cfg.Samples, Bands: cfg.Bands, Seed: cfg.Seed,
		ClassNames: hyperhet.ClassNames,
		ClassMap:   sc.Truth.ClassMap,
	}
	for _, h := range sc.Truth.HotSpots {
		truth.HotSpots = append(truth.HotSpots, hotSpotJSON{h.Label, h.Line, h.Sample, h.TempF})
	}
	blob, err := json.MarshalIndent(truth, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out+".truth.json", blob, 0o644); err != nil {
		return err
	}
	stats := sc.Cube.ComputeStats()
	fmt.Fprintf(stdout, "wrote %s: %dx%dx%d (%.1f MB), reflectance %.3f..%.3f\n",
		wrote, cfg.Lines, cfg.Samples, cfg.Bands,
		float64(sc.Cube.SizeBytes())/(1<<20), stats.Min, stats.Max)
	fmt.Fprintf(stdout, "wrote %s.truth.json: %d hot spots, %d debris classes\n",
		*out, len(truth.HotSpots), len(truth.ClassNames))
	return nil
}

func analyze(fs *flag.FlagSet, args []string, stdout, _ io.Writer) error {
	var (
		in      = fs.String("in", "", "input cube file (required)")
		algName = fs.String("algorithm", "atdca", "atdca or ufcls (target detection), pct or morph (classification)")
		targets = fs.Int("targets", 18, "number of targets t (atdca, ufcls)")
		classes = fs.Int("classes", 7, "number of classes c (pct, morph)")
		netName = fs.String("net", "sequential", "platform: sequential, fully-het, fully-homo, part-het, part-homo, thunderhead")
		cpus    = fs.Int("cpus", 16, "node count for -net thunderhead")
		variant = fs.String("variant", "hetero", "partitioning: hetero (WEA) or homo (equal shares)")
		trace   = fs.Bool("trace", false, "print a per-processor activity timeline of the run")
		truthIn = fs.String("truth", "", "ground-truth sidecar JSON for accuracy scoring (pct, morph)")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return usagef("-in is required")
	}
	alg, err := hyperhet.ParseAlgorithm(*algName)
	if err != nil {
		return usageError{err}
	}
	// A flag that only the other kind of algorithm reads is a mistake,
	// not something to ignore.
	wrong := []string{"classes", "truth"}
	if alg == hyperhet.PCT || alg == hyperhet.MORPH {
		wrong = []string{"targets"}
	}
	fs.Visit(func(f *flag.Flag) {
		for _, name := range wrong {
			if f.Name == name {
				err = usagef("-%s does not apply to %s", name, alg)
			}
		}
	})
	if err != nil {
		return err
	}
	v, err := hyperhet.ParseVariant(*variant)
	if err != nil {
		return usageError{err}
	}
	if *targets <= 0 {
		return usagef("-targets must be positive, got %d", *targets)
	}
	if *classes <= 0 {
		return usagef("-classes must be positive, got %d", *classes)
	}
	var net *hyperhet.Network
	if !strings.EqualFold(*netName, "sequential") {
		if net, err = hyperhet.NetworkByName(*netName, *cpus); err != nil {
			return usageError{err}
		}
	}

	var f *hyperhet.Cube
	if strings.HasSuffix(strings.ToLower(*in), ".hdr") {
		f, _, err = hyperhet.LoadENVI(*in)
	} else {
		f, err = hyperhet.LoadCube(*in)
	}
	if err != nil {
		return err
	}
	var truth truthSidecar
	if *truthIn != "" {
		blob, err := os.ReadFile(*truthIn)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(blob, &truth); err != nil {
			return fmt.Errorf("%s: %w", *truthIn, err)
		}
	}

	params := hyperhet.DefaultParams()
	params.Targets = *targets
	params.PCT.Classes = *classes
	params.Morph.Classes = *classes
	params.Trace = *trace
	var rep *hyperhet.RunReport
	if net == nil {
		rep, err = hyperhet.RunSequential(0.0072, alg, f, params)
	} else {
		rep, err = hyperhet.Run(net, alg, v, f, params)
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "%s/%s on %s (%d processors)\n", rep.Algorithm, rep.Variant, rep.Network, rep.Procs)
	fmt.Fprintf(stdout, "virtual time %.2f s (COM %.2f, SEQ %.2f, PAR %.2f), imbalance D_all=%.2f D_minus=%.2f\n",
		rep.WallTime, rep.Com, rep.Seq, rep.Par, rep.DAll, rep.DMinus)
	if rep.Timeline != "" {
		fmt.Fprintln(stdout, rep.Timeline)
	}
	if rep.Detection != nil {
		fmt.Fprintf(stdout, "%-4s %-6s %-7s %s\n", "#", "line", "sample", "score")
		for i, tg := range rep.Detection.Targets {
			fmt.Fprintf(stdout, "%-4d %-6d %-7d %.5f\n", i+1, tg.Line, tg.Sample, tg.Score)
		}
		return nil
	}
	labels := rep.Classification.Labels
	counts := make([]int, len(rep.Classification.Classes))
	for _, lab := range labels {
		counts[lab]++
	}
	fmt.Fprintf(stdout, "%d classes:\n", len(counts))
	for k, n := range counts {
		fmt.Fprintf(stdout, "  class %d: %d pixels (%.1f%%)\n", k, n, 100*float64(n)/float64(len(labels)))
	}
	if *truthIn == "" {
		return nil
	}
	acc, err := hyperhet.ClassificationAccuracy(truth.ClassMap, len(truth.ClassNames), labels)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "accuracy vs ground truth: %.2f%% overall\n", 100*acc.Overall)
	for k, v := range acc.PerClass {
		name := fmt.Sprintf("class %d", k)
		if k < len(truth.ClassNames) {
			name = truth.ClassNames[k]
		}
		fmt.Fprintf(stdout, "  %-26s %.2f%%\n", name, 100*v)
	}
	return nil
}

func tables(fs *flag.FlagSet, args []string, stdout, stderr io.Writer) error {
	var (
		tableN = fs.Int("table", 0, "print one table (1..8)")
		figure = fs.Int("figure", 0, "print one figure (2)")
		all    = fs.Bool("all", false, "print every table and figure")
		seed   = fs.Int64("seed", 0, "override the scene seed (0 keeps the default)")
		quiet  = fs.Bool("quiet", false, "suppress progress notes on stderr")
		asJSON = fs.Bool("json", false, "emit one JSON document with every computed result instead of text tables")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *tableN < 0 || *tableN > 8 {
		return usagef("-table must be 1..8, got %d", *tableN)
	}
	if *figure != 0 && *figure != 2 {
		return usagef("-figure must be 2 (the paper's only figure), got %d", *figure)
	}
	if *tableN == 0 && *figure == 0 {
		*all = true
	}
	cfg := hyperhet.DefaultExperimentConfig()
	if *seed != 0 {
		cfg.AccuracyScene.Seed = *seed
		cfg.TimingScene.Seed = *seed
		cfg.ThunderheadScene.Seed = *seed
	}
	want := func(n int) bool { return *all || *tableN == n }
	show := func(text string) {
		if !*asJSON {
			fmt.Fprintln(stdout, text)
		}
	}
	// study announces a computation on stderr and returns the function
	// that reports how long it took.
	study := func(what string) (done func()) {
		if *quiet {
			return func() {}
		}
		fmt.Fprintf(stderr, "running %s...\n", what)
		start := time.Now()
		return func() { fmt.Fprintf(stderr, "  done in %v\n", time.Since(start).Round(time.Millisecond)) }
	}
	// results accumulates everything computed for -json output.
	results := map[string]any{}

	if want(1) {
		show(hyperhet.RenderTable1())
	}
	if want(2) {
		show(hyperhet.RenderTable2())
	}
	if want(3) {
		done := study("Table 3 (target detection accuracy)")
		r, err := hyperhet.Table3(cfg)
		if err != nil {
			return err
		}
		done()
		results["table3"] = r
		show(hyperhet.RenderTable3(r))
	}
	if want(4) {
		done := study("Table 4 (classification accuracy)")
		r, err := hyperhet.Table4(cfg)
		if err != nil {
			return err
		}
		done()
		results["table4"] = r
		show(hyperhet.RenderTable4(r))
	}
	if want(5) || want(6) || want(7) {
		done := study("the network suite (Tables 5-7, 32 runs)")
		suite, err := hyperhet.NetworkSuite(cfg)
		if err != nil {
			return err
		}
		done()
		results["network_suite"] = suite
		if want(5) {
			show(hyperhet.RenderTable5(suite))
		}
		if want(6) {
			show(hyperhet.RenderTable6(suite))
		}
		if want(7) {
			show(hyperhet.RenderTable7(suite))
		}
	}
	if want(8) || *figure == 2 {
		done := study("the Thunderhead study (Table 8, Figure 2, 36 runs)")
		th, err := hyperhet.ThunderheadStudy(cfg)
		if err != nil {
			return err
		}
		done()
		results["thunderhead"] = th
		if want(8) {
			show(hyperhet.RenderTable8(th))
		}
		if *all || *figure == 2 {
			show(hyperhet.RenderFigure2(th))
		}
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(results)
	}
	return nil
}
