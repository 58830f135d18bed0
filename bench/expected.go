package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// jobResult is the result summary of GET /jobs/{id}, the part of a job an
// op is checked on.
type jobResult struct {
	VirtualSeconds float64 `json:"virtual_seconds"`
	ComSeconds     float64 `json:"com_seconds"`
	SeqSeconds     float64 `json:"seq_seconds"`
	ParSeconds     float64 `json:"par_seconds"`
	ImbalanceDAll  float64 `json:"imbalance_d_all"`
	Targets        int     `json:"targets,omitempty"`
	Classes        int     `json:"classes,omitempty"`
}

type classScore struct {
	OverallPercent float64 `json:"overall_percent"`
	Kappa          float64 `json:"kappa"`
}

// pipeResult is the part of a pipeline's synthesis an op is checked on.
// Per-stage from_cache flags and wall-clock times are left out: they differ
// between a fresh and a memoized run of the same request.
type pipeResult struct {
	Detection           map[string]map[string]float64 `json:"detection"`
	Classification      map[string]classScore         `json:"classification"`
	TotalVirtualSeconds float64                       `json:"total_virtual_seconds"`
}

// expectedResult is one entry of expected.json.
type expectedResult struct {
	Job      *jobResult  `json:"job,omitempty"`
	Pipeline *pipeResult `json:"pipeline,omitempty"`
}

func expectedPath(root string) string { return filepath.Join(root, "bench", "expected.json") }

func loadExpected(root string) (map[string]expectedResult, error) {
	b, err := os.ReadFile(expectedPath(root))
	if err != nil {
		return nil, fmt.Errorf("%w (regenerate with -record)", err)
	}
	var m map[string]expectedResult
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath(root), err)
	}
	return m, nil
}

func saveExpected(root string, m map[string]expectedResult) error {
	b, err := json.MarshalIndent(m, "", " ") // map keys marshal sorted
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath(root), append(b, '\n'), 0o644)
}

// closeTo compares virtual times within 1e-9 relative.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// diffJob describes the first field on which got departs from want, "" when
// none does.
func diffJob(got, want *jobResult) string {
	if got == nil || want == nil {
		return "job result missing"
	}
	for _, f := range []struct {
		name string
		g, w float64
	}{
		{"virtual_seconds", got.VirtualSeconds, want.VirtualSeconds},
		{"com_seconds", got.ComSeconds, want.ComSeconds},
		{"seq_seconds", got.SeqSeconds, want.SeqSeconds},
		{"par_seconds", got.ParSeconds, want.ParSeconds},
		{"imbalance_d_all", got.ImbalanceDAll, want.ImbalanceDAll},
	} {
		if !closeTo(f.g, f.w) {
			return fmt.Sprintf("%s %v, want %v", f.name, f.g, f.w)
		}
	}
	if got.Targets != want.Targets {
		return fmt.Sprintf("targets %d, want %d", got.Targets, want.Targets)
	}
	if got.Classes != want.Classes {
		return fmt.Sprintf("classes %d, want %d", got.Classes, want.Classes)
	}
	return ""
}

func diffPipe(got, want *pipeResult) string {
	if got == nil || want == nil {
		return "pipeline synthesis missing"
	}
	if !closeTo(got.TotalVirtualSeconds, want.TotalVirtualSeconds) {
		return fmt.Sprintf("total_virtual_seconds %v, want %v", got.TotalVirtualSeconds, want.TotalVirtualSeconds)
	}
	if len(got.Detection) != len(want.Detection) || len(got.Classification) != len(want.Classification) {
		return "synthesis scores a different set of stages"
	}
	for _, stage := range sortedKeys(want.Detection) {
		g := got.Detection[stage]
		if len(g) != len(want.Detection[stage]) {
			return fmt.Sprintf("detection[%s] scores a different set of hot spots", stage)
		}
		for _, spot := range sortedKeys(want.Detection[stage]) {
			if gv, ok := g[spot]; !ok || gv != want.Detection[stage][spot] {
				return fmt.Sprintf("detection[%s][%s] SAD %v, want %v", stage, spot, gv, want.Detection[stage][spot])
			}
		}
	}
	for _, stage := range sortedKeys(want.Classification) {
		if g, ok := got.Classification[stage]; !ok || g != want.Classification[stage] {
			return fmt.Sprintf("classification[%s] %+v, want %+v", stage, g, want.Classification[stage])
		}
	}
	return ""
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
