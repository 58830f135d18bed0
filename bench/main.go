// Command bench is the repository's benchmark: it builds cmd/hyperhetd,
// runs it as a subprocess under five workloads, checks every result against
// bench/expected.json and prints end-to-end metrics (tracing off) and a
// per-layer budget (traced pass plus in-process layer replay). See
// bench/README.md.
//
//	go run ./bench                                  every workload, both passes
//	go run ./bench -workload scene-churn -trace 0   one workload, end-to-end only
//	go run ./bench -agree                           untraced suite twice, compared
//	go run ./bench -record                          regenerate expected.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics, for the pass that ran last.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all five)")
		seed    = flag.Int64("seed", 1, "orders the ops within a cycle and draws the open-loop arrival times")
		seconds = flag.Float64("seconds", 15, "measured time per pass; closed loops finish the cycle they are in")
		trace   = flag.String("trace", "both", "0: end-to-end metrics, tracing off; 1: per-layer metrics; both")
		record  = flag.Bool("record", false, "regenerate bench/expected.json from this build instead of checking against it")
		agree   = flag.Bool("agree", false, "run the untraced suite twice and fail if any metric pair disagrees beyond its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != "0" && *trace != "1" && *trace != "both") {
		flag.Usage()
		os.Exit(2)
	}
	workloads := allWorkloads()
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		workloads = []workload{w}
	}
	if err := run(workloads, *seed, *seconds, *trace, *record, *agree); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workloads []workload, seed int64, seconds float64, trace string, record, agree bool) error {
	h, err := newHarness()
	if err != nil {
		return err
	}
	if record {
		return h.record()
	}
	if h.expected, err = loadExpected(h.root); err != nil {
		return err
	}
	o := runOpts{Seconds: seconds}
	if agree {
		return h.agree(workloads, seed, o)
	}
	for i := range workloads {
		w := &workloads[i]
		if trace != "1" {
			res, err := h.e2e(w, seed, o)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			report(w, "0", endToEnd, res)
		}
		if trace != "0" {
			res, err := h.traced(w, seed, o)
			if err != nil {
				return fmt.Errorf("%s (traced): %w", w.Name, err)
			}
			report(w, "1", perLayer, res)
		}
	}
	return nil
}

// resultLine is the contract's last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints one pass: a readable table on standard error, then on
// standard output a header comment and the result object on one line.
func report(w *workload, trace string, defs []metricDef, res passResult) {
	line := resultLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]metricValue, len(defs))}
	fmt.Fprintf(os.Stderr, "\n== %s  trace=%s  ops=%d failed=%d failed_share=%.4g latency_samples=%d\n",
		w.Name, trace, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), res.Attempted-res.Failed)
	if res.FirstFail != "" {
		fmt.Fprintf(os.Stderr, "first failure: %s\n", res.FirstFail)
	}
	for _, d := range defs {
		v := res.Metrics[d.Name]
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(os.Stderr, "%-34s %14.6g %s\n", d.Name, v, d.Unit)
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	fmt.Printf("# %s trace=%s\n%s\n", w.Name, trace, b)
}

// record runs every template of every workload once against a fresh server
// and writes the results as the new reference.
func (h *harness) record() error {
	expected := make(map[string]expectedResult)
	workloads := allWorkloads()
	for i := range workloads {
		w := &workloads[i]
		// The warm-up sends every template once; h.expected is nil, so its
		// results are kept, not compared.
		s, _, ops, err := h.setup(w, true)
		if err == nil {
			err = h.stop(s)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		for _, op := range ops {
			expected[w.Templates[op.Template].Key] = expectedResult{Job: op.Job, Pipeline: op.Pipe}
		}
	}
	fmt.Fprintf(os.Stderr, "bench: recorded %d reference results in %s\n", len(expected), expectedPath(h.root))
	return saveExpected(h.root, expected)
}
