package flow

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/scene"
)

// Synthesis is the output of a KindSynthesize stage: the pipeline's
// analysis reports scored against its scene's ground truth plus a
// timing summary — the pipeline-level analogue of the paper's Table 3
// (detection SAD per hot spot) and Table 4 (classification accuracy),
// produced from one submission instead of N.
type Synthesis struct {
	// Detection maps each detection stage (ATDCA/UFCLS runs) to
	// the Table 3 measure: per hot-spot label, the spectral angle between
	// the known target pixel and the most similar detected target.
	Detection map[string]map[string]float64 `json:"detection,omitempty"`
	// Classification maps each classification stage (PCT/MORPH runs) to
	// its Table 4 scores.
	Classification map[string]*ClassificationScore `json:"classification,omitempty"`
	// Timing lists every analysis stage's virtual-time figures in stage
	// name order.
	Timing []StageTiming `json:"timing"`
	// TotalVirtualSeconds sums the analysis runs' virtual wall times —
	// what the composite analysis cost end to end in simulated time.
	TotalVirtualSeconds float64 `json:"total_virtual_seconds"`
}

// ClassificationScore is one classifier's accuracy against ground truth.
type ClassificationScore struct {
	// OverallPercent is the fraction of labeled pixels classified
	// correctly under the best label mapping, in percent.
	OverallPercent float64 `json:"overall_percent"`
	// Kappa is Cohen's kappa, the agreement-beyond-chance companion.
	Kappa float64 `json:"kappa"`
	// PerClassPercent holds per-truth-class accuracies in percent,
	// aligned with scene.ClassNames.
	PerClassPercent []float64 `json:"per_class_percent"`
}

// StageTiming is one analysis stage's performance summary.
type StageTiming struct {
	Stage     string `json:"stage"`
	Algorithm string `json:"algorithm"`
	Variant   string `json:"variant,omitempty"`
	Network   string `json:"network,omitempty"`
	Procs     int    `json:"procs,omitempty"`
	// VirtualSeconds is the run's simulated wall time; FromCache marks a
	// memoized result (its time was paid by an earlier pipeline).
	VirtualSeconds float64 `json:"virtual_seconds"`
	FromCache      bool    `json:"from_cache,omitempty"`
	// DAll is the run's load-imbalance ratio (Table 7).
	DAll float64 `json:"d_all,omitempty"`
}

// synthInput is one analyze stage handed to synthesize.
type synthInput struct {
	name      string
	report    *core.RunReport
	fromCache bool
}

// synthesize scores every analysis report against the scene's ground
// truth. Detection reports get the Table 3 hot-spot SAD measure;
// classification reports get Table 4 accuracy and kappa. Inputs are
// processed in stage-name order so the output is deterministic.
func synthesize(sc *scene.Scene, inputs []synthInput) (*Synthesis, error) {
	sorted := append([]synthInput(nil), inputs...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].name < sorted[b].name })

	out := &Synthesis{}
	for _, in := range sorted {
		rep := in.report
		if rep == nil {
			return nil, fmt.Errorf("flow: synthesize: stage %q produced no report", in.name)
		}
		out.Timing = append(out.Timing, StageTiming{
			Stage:          in.name,
			Algorithm:      string(rep.Algorithm),
			Variant:        string(rep.Variant),
			Network:        rep.Network,
			Procs:          rep.Procs,
			VirtualSeconds: rep.WallTime,
			FromCache:      in.fromCache,
			DAll:           rep.DAll,
		})
		out.TotalVirtualSeconds += rep.WallTime

		switch {
		case rep.Detection != nil:
			if out.Detection == nil {
				out.Detection = make(map[string]map[string]float64)
			}
			out.Detection[in.name] = metrics.DetectionScores(sc, rep.Detection)
		case rep.Classification != nil:
			acc, err := metrics.Classification(sc.Truth.ClassMap, scene.NumClasses, rep.Classification.Labels)
			if err != nil {
				return nil, fmt.Errorf("flow: synthesize: scoring stage %q: %w", in.name, err)
			}
			score := &ClassificationScore{
				OverallPercent: 100 * acc.Overall,
				Kappa:          acc.Kappa,
			}
			for _, f := range acc.PerClass {
				score.PerClassPercent = append(score.PerClassPercent, 100*f)
			}
			if out.Classification == nil {
				out.Classification = make(map[string]*ClassificationScore)
			}
			out.Classification[in.name] = score
		}
	}
	return out, nil
}
