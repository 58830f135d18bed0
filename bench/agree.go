package main

import (
	"fmt"
	"math"
	"os"
)

// agree runs the untraced suite twice on the same build and seed and
// compares every workload x end-to-end metric pair against the metric's
// bound, then runs the traced pass twice and requires the exact counts to
// be identical. It is the benchmark's own check that it can tell a
// regression from noise. An ungated workload is run and printed, but only its
// failed ops and exact counts are held against it.
func (h *harness) agree(workloads []workload, seed int64, o runOpts) error {
	bad := 0
	for i := range workloads {
		w := &workloads[i]
		a, err := h.e2e(w, seed, o)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		b, err := h.e2e(w, seed, o)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		fmt.Printf("%s  (ops %d / %d, failed %d / %d)\n", w.Name, a.Attempted, b.Attempted, a.Failed, b.Failed)
		if a.Failed+b.Failed > 0 {
			bad++
		}
		for _, d := range endToEnd {
			x, y := a.Metrics[d.Name], b.Metrics[d.Name]
			rel := math.Abs(x-y) / math.Min(x, y)
			verdict := "ok"
			if !(rel <= bound) {
				verdict = "DISAGREE"
				if w.Ungated != "" {
					verdict = "disagree (not gated)"
				} else {
					bad++
				}
			}
			fmt.Printf("  %-16s %12.6g %12.6g %-5s diff %6.2f%%  bound %4.0f%%  %s\n",
				d.Name, x, y, d.Unit, 100*rel, 100*bound, verdict)
		}
		ta, err := h.traced(w, seed, o)
		if err != nil {
			return fmt.Errorf("%s (traced): %w", w.Name, err)
		}
		tb, err := h.traced(w, seed, o)
		if err != nil {
			return fmt.Errorf("%s (traced): %w", w.Name, err)
		}
		for _, name := range exactCounts {
			x, y := ta.Metrics[name], tb.Metrics[name]
			// The counts are sums of floats, on the server and here; when
			// the two runs fit a different number of cycles the same total
			// is added up in another order and may differ in the last bits.
			verdict := "identical"
			if math.Abs(x-y) > 1e-12*math.Max(math.Abs(x), math.Abs(y)) {
				verdict = "DIFFER"
				bad++
			}
			fmt.Printf("  %-30s %.17g %.17g  %s\n", name, x, y, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d metric pairs disagree\n", bad)
		return fmt.Errorf("two runs of the same build disagree on %d metrics", bad)
	}
	return nil
}
