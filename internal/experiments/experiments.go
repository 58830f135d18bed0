// Package experiments reproduces the evaluation of Plaza (CLUSTER 2006):
// one driver per table and figure. Each driver returns a structured
// result that package report renders in the paper's row/column layout.
//
// Experiment index (see DESIGN.md):
//
//   - Table 3: target detection accuracy (SAD to the known hot spots) and
//     single-processor times for ATDCA and UFCLS.
//   - Table 4: classification accuracy per USGS dust/debris class and
//     single-processor times for PCT and MORPH.
//   - Tables 5-7: execution time, COM/SEQ/PAR decomposition and load
//     imbalance for the heterogeneous and homogeneous variants of all
//     four algorithms on the four UMD networks.
//   - Table 8 / Figure 2: execution times and speedups of the
//     heterogeneous algorithms on 1-256 Thunderhead nodes.
package experiments

import (
	"fmt"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/scene"
)

// Config selects the scenes and parameters for the whole evaluation.
type Config struct {
	// AccuracyScene is used for the accuracy studies (Tables 3-4).
	AccuracyScene scene.Config
	// TimingScene is used for the 32-run network suite (Tables 5-7); it
	// is smaller, since only timing shape matters there.
	TimingScene scene.Config
	// ThunderheadScene is used for the scalability study (Table 8,
	// Figure 2); it has enough lines for 256 partitions.
	ThunderheadScene scene.Config
	// Params carries the algorithm parameters (paper defaults when zero).
	Params core.Params
	// ThunderheadCPUs are the processor counts of Table 8.
	ThunderheadCPUs []int
}

// DefaultConfig mirrors the paper's setup at a scale that runs on one
// machine. The virtual-time model preserves the tables' shape; see
// EXPERIMENTS.md for the paper-vs-measured comparison.
func DefaultConfig() Config {
	return Config{
		AccuracyScene:    scene.WTCDefault(),
		TimingScene:      scene.Config{Lines: 2133, Samples: 16, Bands: 24, Seed: 20010916},
		ThunderheadScene: scene.Config{Lines: 1024, Samples: 32, Bands: 32, Seed: 20010916},
		Params:           core.DefaultParams(),
		ThunderheadCPUs:  []int{1, 4, 16, 36, 64, 100, 144, 196, 256},
	}
}

// ScaledParams adapts parameters to a reduced scene so a run simulates
// the paper's full 2133x512x224 AVIRIS job: it defaults t to 18 targets
// and clamps it to the band budget (smaller test scenes have fewer
// bands), sets the work and data scales (see mpi.World.SetComputeScale)
// and charges the master-side fixed steps at the paper's 224 bands.
func ScaledParams(p core.Params, cfg scene.Config) core.Params {
	if p.Targets == 0 {
		p.Targets = 18
	}
	if p.Targets > cfg.Bands-2 {
		p.Targets = cfg.Bands - 2
	}
	if p.WorkScale == 0 {
		p.WorkScale = workScale(cfg)
	}
	if p.DataScale == 0 {
		p.DataScale = dataScale(cfg)
	}
	if p.PCT == (algo.PCTParams{}) {
		p.PCT = algo.DefaultPCTParams()
	}
	if p.PCT.EquivalentBands == 0 {
		p.PCT.EquivalentBands = 224
	}
	if p.EquivalentBands == 0 {
		p.EquivalentBands = 224
	}
	return p
}

// dataScale returns the byte multiplier for pixel-proportional transfers:
// the reduced scene's data volume scaled to the paper's full scene
// (linear in both pixel count and band count).
func dataScale(cfg scene.Config) float64 {
	pixelRatio := float64(2133*512) / float64(cfg.Lines*cfg.Samples)
	bandRatio := 224.0 / float64(cfg.Bands)
	return pixelRatio * bandRatio
}

// workScale returns the flop multiplier making a reduced scene's
// computation equivalent to the paper's full scene: the pixel-count ratio
// times the squared band ratio (the dominant kernels — dense projector
// application and covariance accumulation — are quadratic in the band
// count).
func workScale(cfg scene.Config) float64 {
	pixelRatio := float64(2133*512) / float64(cfg.Lines*cfg.Samples)
	bandRatio := 224.0 / float64(cfg.Bands)
	return pixelRatio * bandRatio * bandRatio
}

// Table3Result is the detection accuracy study.
type Table3Result struct {
	// Spots lists the hot spot labels in table order (A-G).
	Spots []string
	// ATDCA and UFCLS map each spot to the SAD between the pixel at the
	// known target position and the most similar detected target.
	ATDCA, UFCLS map[string]float64
	// SeqTimeATDCA and SeqTimeUFCLS are the single-processor virtual
	// times in seconds (the parenthesized figures of Table 3).
	SeqTimeATDCA, SeqTimeUFCLS float64
}

// Table3 reproduces the target detection accuracy study.
func Table3(cfg Config) (*Table3Result, error) {
	sc, err := scene.Generate(cfg.AccuracyScene)
	if err != nil {
		return nil, fmt.Errorf("experiments: table 3: %w", err)
	}
	params := ScaledParams(cfg.Params, cfg.AccuracyScene)
	res := &Table3Result{Spots: scene.HotSpotLabels}

	at, err := core.RunSequential(platform.ThunderheadCycleTime, core.ATDCA, sc.Cube, params)
	if err != nil {
		return nil, fmt.Errorf("experiments: table 3 ATDCA: %w", err)
	}
	res.ATDCA = metrics.DetectionScores(sc, at.Detection)
	res.SeqTimeATDCA = at.WallTime

	uf, err := core.RunSequential(platform.ThunderheadCycleTime, core.UFCLS, sc.Cube, params)
	if err != nil {
		return nil, fmt.Errorf("experiments: table 3 UFCLS: %w", err)
	}
	res.UFCLS = metrics.DetectionScores(sc, uf.Detection)
	res.SeqTimeUFCLS = uf.WallTime
	return res, nil
}

// Table4Result is the classification accuracy study.
type Table4Result struct {
	// Classes lists the USGS dust/debris class names in table order.
	Classes []string
	// PCT and Morph hold per-class accuracies in percent, aligned with
	// Classes.
	PCT, Morph []float64
	// OverallPCT and OverallMorph are the bottom-row overall accuracies
	// in percent.
	OverallPCT, OverallMorph float64
	// KappaPCT and KappaMorph are Cohen's kappa coefficients, the
	// standard remote-sensing agreement-beyond-chance companion to the
	// accuracy percentages.
	KappaPCT, KappaMorph float64
	// SeqTimePCT and SeqTimeMorph are the single-processor virtual times
	// in seconds.
	SeqTimePCT, SeqTimeMorph float64
}

// Table4 reproduces the classification accuracy study.
func Table4(cfg Config) (*Table4Result, error) {
	sc, err := scene.Generate(cfg.AccuracyScene)
	if err != nil {
		return nil, fmt.Errorf("experiments: table 4: %w", err)
	}
	params := ScaledParams(cfg.Params, cfg.AccuracyScene)
	res := &Table4Result{Classes: scene.ClassNames}

	// The dust/debris map covers the collapse zone; classify that crop
	// (see Scene.DebrisCrop).
	crop, truth, err := sc.DebrisCrop()
	if err != nil {
		return nil, fmt.Errorf("experiments: table 4 crop: %w", err)
	}

	pct, err := core.RunSequential(platform.ThunderheadCycleTime, core.PCT, crop, params)
	if err != nil {
		return nil, fmt.Errorf("experiments: table 4 PCT: %w", err)
	}
	accPCT, err := metrics.Classification(truth, scene.NumClasses, pct.Classification.Labels)
	if err != nil {
		return nil, fmt.Errorf("experiments: table 4 PCT accuracy: %w", err)
	}
	res.SeqTimePCT = pct.WallTime

	mor, err := core.RunSequential(platform.ThunderheadCycleTime, core.MORPH, crop, params)
	if err != nil {
		return nil, fmt.Errorf("experiments: table 4 MORPH: %w", err)
	}
	accMor, err := metrics.Classification(truth, scene.NumClasses, mor.Classification.Labels)
	if err != nil {
		return nil, fmt.Errorf("experiments: table 4 MORPH accuracy: %w", err)
	}
	res.SeqTimeMorph = mor.WallTime

	res.PCT = make([]float64, scene.NumClasses)
	res.Morph = make([]float64, scene.NumClasses)
	for k := 0; k < scene.NumClasses; k++ {
		res.PCT[k] = 100 * accPCT.PerClass[k]
		res.Morph[k] = 100 * accMor.PerClass[k]
	}
	res.OverallPCT = 100 * accPCT.Overall
	res.OverallMorph = 100 * accMor.Overall
	res.KappaPCT, res.KappaMorph = accPCT.Kappa, accMor.Kappa
	return res, nil
}

// NetStats is one cell group of Tables 5-7.
type NetStats struct {
	Wall          float64 // Table 5
	Com, Seq, Par float64 // Table 6
	DAll, DMinus  float64 // Table 7
}

// SuiteRow is one algorithm variant measured across all four networks.
type SuiteRow struct {
	Algorithm core.Algorithm
	Variant   core.Variant
	// PerNetwork is aligned with NetworkSuiteResult.Networks.
	PerNetwork []NetStats
}

// NetworkSuiteResult powers Tables 5, 6 and 7.
type NetworkSuiteResult struct {
	// Networks lists the platform names in the paper's column order.
	Networks []string
	// Rows are ordered as the paper's tables: Hetero-ATDCA, Homo-ATDCA,
	// Hetero-UFCLS, ... .
	Rows []SuiteRow
}

// OptimalityRatios evaluates the paper's optimality criterion (after
// Lastovetsky & Reddy): a heterogeneous algorithm is optimal when its
// time on the heterogeneous network matches its homogeneous version's
// time on the equivalent homogeneous network. The returned ratio is
// T(Hetero, fully-het) / T(Homo, fully-homo) per algorithm; 1.0 is
// optimal, and the paper reports values close to it (e.g. ATDCA
// 84/81 = 1.04).
func (r *NetworkSuiteResult) OptimalityRatios() map[core.Algorithm]float64 {
	byKey := map[string]SuiteRow{}
	for _, row := range r.Rows {
		byKey[string(row.Variant)+"-"+string(row.Algorithm)] = row
	}
	const fullyHet, fullyHomo = 0, 1
	out := map[core.Algorithm]float64{}
	for _, alg := range core.Algorithms {
		het, okH := byKey["Hetero-"+string(alg)]
		hom, okM := byKey["Homo-"+string(alg)]
		if !okH || !okM || len(het.PerNetwork) < 2 || len(hom.PerNetwork) < 2 {
			continue
		}
		if denom := hom.PerNetwork[fullyHomo].Wall; denom > 0 {
			out[alg] = het.PerNetwork[fullyHet].Wall / denom
		}
	}
	return out
}

// NetworkSuite runs every algorithm variant on the four UMD networks.
func NetworkSuite(cfg Config) (*NetworkSuiteResult, error) {
	sc, err := scene.Generate(cfg.TimingScene)
	if err != nil {
		return nil, fmt.Errorf("experiments: network suite: %w", err)
	}
	params := ScaledParams(cfg.Params, cfg.TimingScene)
	nets := platform.UMDNetworks()
	res := &NetworkSuiteResult{}
	for _, n := range nets {
		res.Networks = append(res.Networks, n.Name)
	}
	for _, alg := range core.Algorithms {
		for _, v := range core.Variants {
			row := SuiteRow{Algorithm: alg, Variant: v}
			for _, net := range nets {
				rep, err := core.Run(net, alg, v, sc.Cube, params)
				if err != nil {
					return nil, fmt.Errorf("experiments: %s/%s on %s: %w", alg, v, net.Name, err)
				}
				row.PerNetwork = append(row.PerNetwork, NetStats{
					Wall: rep.WallTime,
					Com:  rep.Com, Seq: rep.Seq, Par: rep.Par,
					DAll: rep.DAll, DMinus: rep.DMinus,
				})
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// ThunderheadResult powers Table 8 and Figure 2.
type ThunderheadResult struct {
	// CPUs are the processor counts, in table order.
	CPUs []int
	// Times[alg][i] is the virtual execution time on CPUs[i] processors.
	Times map[core.Algorithm][]float64
	// Speedups[alg][i] is Times[alg][0 at CPUs=1] / Times[alg][i].
	Speedups map[core.Algorithm][]float64
}

// Thunderhead runs the heterogeneous algorithms on growing subsets of the
// Thunderhead cluster.
func Thunderhead(cfg Config) (*ThunderheadResult, error) {
	sc, err := scene.Generate(cfg.ThunderheadScene)
	if err != nil {
		return nil, fmt.Errorf("experiments: thunderhead: %w", err)
	}
	params := ScaledParams(cfg.Params, cfg.ThunderheadScene)
	cpus := cfg.ThunderheadCPUs
	if len(cpus) == 0 {
		cpus = DefaultConfig().ThunderheadCPUs
	}
	if cpus[0] != 1 {
		return nil, fmt.Errorf("experiments: thunderhead CPU list must start at 1 (the speedup baseline)")
	}
	res := &ThunderheadResult{
		CPUs:     cpus,
		Times:    map[core.Algorithm][]float64{},
		Speedups: map[core.Algorithm][]float64{},
	}
	for _, alg := range core.Algorithms {
		for _, p := range cpus {
			net, err := platform.Thunderhead(p)
			if err != nil {
				return nil, fmt.Errorf("experiments: thunderhead(%d): %w", p, err)
			}
			rep, err := core.Run(net, alg, core.Hetero, sc.Cube, params)
			if err != nil {
				return nil, fmt.Errorf("experiments: thunderhead %s P=%d: %w", alg, p, err)
			}
			res.Times[alg] = append(res.Times[alg], rep.WallTime)
		}
		t1 := res.Times[alg][0]
		for _, tp := range res.Times[alg] {
			res.Speedups[alg] = append(res.Speedups[alg], metrics.Speedup(t1, tp))
		}
	}
	return res, nil
}
