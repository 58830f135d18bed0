package hyperhet

// The benchmark harness: one benchmark (or benchmark group) per table and
// figure of the paper's evaluation, plus ablations of the design choices
// called out in DESIGN.md and micro-benchmarks of the hot kernels.
//
// The table benchmarks execute the same code paths as `hyperhet tables` on
// reduced scenes; virtual-time results (the tables' content) are attached
// as custom benchmark metrics (vsec = virtual seconds, speedup, D_all),
// while the standard ns/op measures the real cost of the simulation
// itself.
//
// Run everything with:
//
//	go test -bench=. -benchmem

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/linalg"
	"repro/internal/morph"
	"repro/internal/platform"
	"repro/internal/scene"
	"repro/internal/sched"
)

// Shared scenes, generated once.
var (
	benchOnce     sync.Once
	benchAccuracy *scene.Scene // Table 3/4 scene
	benchTiming   *scene.Scene // Tables 5-7 scene
	benchTall     *scene.Scene // Table 8 / Figure 2 scene
)

func benchScenes(b *testing.B) (*scene.Scene, *scene.Scene, *scene.Scene) {
	b.Helper()
	benchOnce.Do(func() {
		var err error
		benchAccuracy, err = scene.Generate(scene.Config{Lines: 96, Samples: 64, Bands: 64, Seed: 20010916})
		if err != nil {
			panic(err)
		}
		benchTiming, err = scene.Generate(scene.Config{Lines: 256, Samples: 16, Bands: 24, Seed: 20010916})
		if err != nil {
			panic(err)
		}
		benchTall, err = scene.Generate(scene.Config{Lines: 384, Samples: 16, Bands: 24, Seed: 20010916})
		if err != nil {
			panic(err)
		}
	})
	return benchAccuracy, benchTiming, benchTall
}

func benchParams(cfg scene.Config) core.Params {
	return experiments.ScaledParams(core.DefaultParams(), cfg)
}

// --- Table 3: target detection accuracy + sequential baselines ---------

func BenchmarkTable3_ATDCA(b *testing.B) {
	sc, _, _ := benchScenes(b)
	params := benchParams(sc.Config)
	b.ResetTimer()
	var vsec float64
	for i := 0; i < b.N; i++ {
		rep, err := RunSequential(0.0072, ATDCA, sc.Cube, params)
		if err != nil {
			b.Fatal(err)
		}
		vsec = rep.WallTime
	}
	b.ReportMetric(vsec, "vsec")
}

func BenchmarkTable3_UFCLS(b *testing.B) {
	sc, _, _ := benchScenes(b)
	params := benchParams(sc.Config)
	b.ResetTimer()
	var vsec float64
	for i := 0; i < b.N; i++ {
		rep, err := RunSequential(0.0072, UFCLS, sc.Cube, params)
		if err != nil {
			b.Fatal(err)
		}
		vsec = rep.WallTime
	}
	b.ReportMetric(vsec, "vsec")
}

// --- Table 4: classification accuracy + sequential baselines -----------

func benchTable4(b *testing.B, alg Algorithm) {
	sc, _, _ := benchScenes(b)
	crop, truth, err := sc.DebrisCrop()
	if err != nil {
		b.Fatal(err)
	}
	params := benchParams(sc.Config)
	b.ResetTimer()
	var overall float64
	for i := 0; i < b.N; i++ {
		rep, err := RunSequential(0.0072, alg, crop, params)
		if err != nil {
			b.Fatal(err)
		}
		acc, err := ClassificationAccuracy(truth, NumClasses, rep.Classification.Labels)
		if err != nil {
			b.Fatal(err)
		}
		overall = 100 * acc.Overall
	}
	b.ReportMetric(overall, "%acc")
}

func BenchmarkTable4_PCT(b *testing.B)   { benchTable4(b, PCT) }
func BenchmarkTable4_MORPH(b *testing.B) { benchTable4(b, MORPH) }

// --- Tables 5-7: the network suite --------------------------------------

// BenchmarkTable5 runs every algorithm variant on every UMD network (the
// full 32-cell grid of Tables 5-7), one sub-benchmark per cell, reporting
// the virtual execution time (Table 5), the COM share (Table 6) and the
// D_all imbalance (Table 7) as metrics.
func BenchmarkTable5(b *testing.B) {
	_, sc, _ := benchScenes(b)
	params := benchParams(sc.Config)
	for _, alg := range Algorithms {
		for _, v := range Variants {
			for _, net := range UMDNetworks() {
				name := fmt.Sprintf("%s-%s/%s", v, alg, net.Name)
				b.Run(name, func(b *testing.B) {
					var rep *RunReport
					var err error
					for i := 0; i < b.N; i++ {
						rep, err = Run(net, alg, v, sc.Cube, params)
						if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(rep.WallTime, "vsec")
					b.ReportMetric(rep.Com, "vsec_com")
					b.ReportMetric(rep.DAll, "D_all")
				})
			}
		}
	}
}

// BenchmarkTable6_Breakdown measures one representative run per algorithm
// and reports the full COM/SEQ/PAR decomposition of the master's
// timeline.
func BenchmarkTable6_Breakdown(b *testing.B) {
	_, sc, _ := benchScenes(b)
	params := benchParams(sc.Config)
	net := FullyHeterogeneous()
	for _, alg := range Algorithms {
		b.Run(string(alg), func(b *testing.B) {
			var rep *RunReport
			var err error
			for i := 0; i < b.N; i++ {
				rep, err = Run(net, alg, Hetero, sc.Cube, params)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.Com, "vsec_com")
			b.ReportMetric(rep.Seq, "vsec_seq")
			b.ReportMetric(rep.Par, "vsec_par")
		})
	}
}

// BenchmarkTable7_Imbalance reports the D_all and D_minus load-balancing
// rates of the hetero and homo variants on the fully heterogeneous
// network.
func BenchmarkTable7_Imbalance(b *testing.B) {
	_, sc, _ := benchScenes(b)
	params := benchParams(sc.Config)
	net := FullyHeterogeneous()
	for _, alg := range Algorithms {
		for _, v := range Variants {
			b.Run(fmt.Sprintf("%s-%s", v, alg), func(b *testing.B) {
				var rep *RunReport
				var err error
				for i := 0; i < b.N; i++ {
					rep, err = Run(net, alg, v, sc.Cube, params)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(rep.DAll, "D_all")
				b.ReportMetric(rep.DMinus, "D_minus")
			})
		}
	}
}

// --- Dynamic load balancing --------------------------------------------

// rankImbalance is the max/mean ratio of the per-rank busy (PAR) times —
// 1.0 is a perfectly level schedule.
func rankImbalance(rep *RunReport) float64 {
	if len(rep.BusyTimes) == 0 {
		return 1
	}
	var max, sum float64
	for _, t := range rep.BusyTimes {
		if t > max {
			max = t
		}
		sum += t
	}
	mean := sum / float64(len(rep.BusyTimes))
	if mean == 0 {
		return 1
	}
	return max / mean
}

// BenchmarkBalance compares the static WEA schedule against demand-driven
// chunk scheduling (BalancePolicy) on the UMD fully-heterogeneous and
// fully-homogeneous platforms, reporting the per-rank PAR imbalance
// (max/mean busy time) and the run's virtual wall time. Each cell runs
// clean and under "drift" — one rank degraded to 6x its modelled cycle
// time for the whole run, the scenario the WEA model cannot see. The
// headline cells are fully-hetero drift: the static plan keeps feeding
// the degraded rank its full share while demand-driven grants shed it.
func BenchmarkBalance(b *testing.B) {
	_, sc, _ := benchScenes(b)
	nets := []*Network{FullyHeterogeneous(), FullyHomogeneous()}
	ctxOf := map[string]context.Context{
		"static":   context.Background(),
		"balanced": WithBalance(context.Background(), DefaultBalancePolicy()),
	}
	drifted := benchParams(sc.Config)
	drifted.Faults = &FaultPlan{Degrades: []FaultDegrade{
		{Rank: 5, From: 0, To: math.Inf(1), Factor: 6, Attempt: -1},
	}}
	paramsOf := map[string]Params{"clean": benchParams(sc.Config), "drift": drifted}
	for _, net := range nets {
		for _, scenario := range []string{"clean", "drift"} {
			params := paramsOf[scenario]
			for _, mode := range []string{"static", "balanced"} {
				ctx := ctxOf[mode]
				for _, alg := range Algorithms {
					b.Run(fmt.Sprintf("%s/%s/%s/%s", net.Name, scenario, mode, alg), func(b *testing.B) {
						var rep *RunReport
						var err error
						for i := 0; i < b.N; i++ {
							rep, err = RunContext(ctx, net, alg, Hetero, sc.Cube, params)
							if err != nil {
								b.Fatal(err)
							}
						}
						b.ReportMetric(rankImbalance(rep), "imbalance")
						b.ReportMetric(rep.WallTime, "vsec")
						if rep.Balanced {
							b.ReportMetric(float64(rep.BalanceChunks), "chunks")
							b.ReportMetric(float64(rep.ReassignedLines), "moved_lines")
						}
					})
				}
			}
		}
	}
}

// --- Table 8 / Figure 2: Thunderhead scalability -----------------------

// BenchmarkTable8 runs each algorithm on 1, 16 and 144 Thunderhead nodes,
// reporting the virtual time per cell.
func BenchmarkTable8(b *testing.B) {
	_, _, sc := benchScenes(b)
	params := benchParams(sc.Config)
	for _, alg := range Algorithms {
		for _, p := range []int{1, 16, 144} {
			b.Run(fmt.Sprintf("%s/cpus=%d", alg, p), func(b *testing.B) {
				net, err := Thunderhead(p)
				if err != nil {
					b.Fatal(err)
				}
				var rep *RunReport
				for i := 0; i < b.N; i++ {
					rep, err = Run(net, alg, Hetero, sc.Cube, params)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(rep.WallTime, "vsec")
			})
		}
	}
}

// BenchmarkFigure2_Speedup reports each algorithm's speedup at 64
// Thunderhead nodes over its own single-node run — the Figure 2 measure.
func BenchmarkFigure2_Speedup(b *testing.B) {
	_, _, sc := benchScenes(b)
	params := benchParams(sc.Config)
	for _, alg := range Algorithms {
		b.Run(string(alg), func(b *testing.B) {
			one, err := Thunderhead(1)
			if err != nil {
				b.Fatal(err)
			}
			many, err := Thunderhead(64)
			if err != nil {
				b.Fatal(err)
			}
			var speedup float64
			for i := 0; i < b.N; i++ {
				r1, err := Run(one, alg, Hetero, sc.Cube, params)
				if err != nil {
					b.Fatal(err)
				}
				r64, err := Run(many, alg, Hetero, sc.Cube, params)
				if err != nil {
					b.Fatal(err)
				}
				speedup = r1.WallTime / r64.WallTime
			}
			b.ReportMetric(speedup, "speedup")
		})
	}
}

// --- Ablations of DESIGN.md design choices ------------------------------

// BenchmarkAblationPartitioning isolates the paper's core claim: the WEA
// speed-proportional partitioning vs equal shares on the fully
// heterogeneous network.
func BenchmarkAblationPartitioning(b *testing.B) {
	_, sc, _ := benchScenes(b)
	params := benchParams(sc.Config)
	net := FullyHeterogeneous()
	for _, v := range Variants {
		b.Run(string(v), func(b *testing.B) {
			var rep *RunReport
			var err error
			for i := 0; i < b.N; i++ {
				rep, err = Run(net, MORPH, v, sc.Cube, params)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.WallTime, "vsec")
		})
	}
}

// BenchmarkAblationAdaptive compares three schedulers on the fully
// heterogeneous network: equal shares (no platform knowledge), the
// measurement-driven adaptive rebalancer (also no platform knowledge),
// and the WEA oracle that was told the cycle-times.
func BenchmarkAblationAdaptive(b *testing.B) {
	_, sc, _ := benchScenes(b)
	params := benchParams(sc.Config)
	net := FullyHeterogeneous()
	for _, v := range []struct {
		name    string
		variant Variant
	}{{"equal-shares", Homo}, {"adaptive", Adaptive}, {"wea-oracle", Hetero}} {
		b.Run(v.name, func(b *testing.B) {
			var rep *RunReport
			var err error
			for i := 0; i < b.N; i++ {
				rep, err = Run(net, ATDCA, v.variant, sc.Cube, params)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.WallTime, "vsec")
		})
	}
}

// BenchmarkAblationShrinkingHalo compares the morphological iteration
// over a worker-sized partition with (MEIRange) and without (MEI) the
// shrinking-halo optimization: the fixed variant recomputes the full
// overlap border at every iteration.
func BenchmarkAblationShrinkingHalo(b *testing.B) {
	_, _, sc := benchScenes(b)
	// A worker-like slice: 8 owned lines with a 5-line halo either side.
	part, err := sc.Cube.Rows(100, 118)
	if err != nil {
		b.Fatal(err)
	}
	se := morph.Square(1)
	b.Run("full-halo", func(b *testing.B) {
		var flops float64
		for i := 0; i < b.N; i++ {
			res := morph.MEI(part, se, 5)
			flops = res.Flops
		}
		b.ReportMetric(flops/1e6, "Mflop")
	})
	b.Run("shrinking", func(b *testing.B) {
		var flops float64
		for i := 0; i < b.N; i++ {
			res := morph.MEIRange(part, se, 5, 5, 13)
			flops = res.Flops
		}
		b.ReportMetric(flops/1e6, "Mflop")
	})
}

// BenchmarkAblationHaloPolicy compares MORPH's two overlap-border
// policies on shallow Thunderhead partitions: the exact full-reach halo
// vs the minimal one-radius halo (approximate at partition edges).
func BenchmarkAblationHaloPolicy(b *testing.B) {
	_, _, sc := benchScenes(b)
	params := benchParams(sc.Config)
	net, err := Thunderhead(64)
	if err != nil {
		b.Fatal(err)
	}
	for _, minimal := range []bool{false, true} {
		name := "exact"
		if minimal {
			name = "minimal"
		}
		b.Run(name, func(b *testing.B) {
			p := params
			p.Morph.MinimalHalo = minimal
			var rep *RunReport
			for i := 0; i < b.N; i++ {
				rep, err = Run(net, MORPH, Hetero, sc.Cube, p)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.WallTime, "vsec")
		})
	}
}

// BenchmarkAblationMemoryBound exercises WEA's step 3b: one very fast
// processor with a memory bound that cannot hold its speed-proportional
// share, forcing recursive redistribution; compared against the same
// platform with ample memory.
func BenchmarkAblationMemoryBound(b *testing.B) {
	sc, _, _ := benchScenes(b) // the wide accuracy scene: ~24 KB per line
	params := benchParams(sc.Config)
	build := func(fastMemMB int) *Network {
		procs := []Processor{
			{ID: 1, CycleTime: 0.002, MemoryMB: fastMemMB},
			{ID: 2, CycleTime: 0.01, MemoryMB: 2048},
			{ID: 3, CycleTime: 0.01, MemoryMB: 2048},
			{ID: 4, CycleTime: 0.01, MemoryMB: 2048},
		}
		links := make([][]float64, 4)
		for i := range links {
			links[i] = make([]float64, 4)
			for j := range links[i] {
				if i != j {
					links[i][j] = 20
				}
			}
		}
		net, err := platform.New("memory-bound", procs, links, 0)
		if err != nil {
			b.Fatal(err)
		}
		return net
	}
	// At ~24 KB per line, a 1 MB bound caps the fast processor at ~21 of
	// the 96 lines — far below its speed-proportional ~60% share — so
	// WEA's recursive redistribution (step 3b) pushes the excess onto
	// the slower processors and the run slows down.
	for _, cfg := range []struct {
		name  string
		memMB int
	}{{"ample-memory", 2048}, {"fast-node-starved", 1}} {
		b.Run(cfg.name, func(b *testing.B) {
			net := build(cfg.memMB)
			var rep *RunReport
			var err error
			for i := 0; i < b.N; i++ {
				rep, err = Run(net, ATDCA, Hetero, sc.Cube, params)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.WallTime, "vsec")
		})
	}
}

// BenchmarkAblationOSPForm compares the paper's dense N x N projector
// application against the factored O(tN) form.
func BenchmarkAblationOSPForm(b *testing.B) {
	sc, _, _ := benchScenes(b)
	bands, t := sc.Cube.Bands, 9
	u := linalg.NewMat(t, bands)
	for i := 0; i < t; i++ {
		for j := 0; j < bands; j++ {
			u.Set(i, j, float64(sc.Cube.PixelAt(i * 97)[j]))
		}
	}
	proj, err := linalg.NewOSP(u)
	if err != nil {
		b.Fatal(err)
	}
	pixel := sc.Cube.PixelAt(1234)
	y := make([]float64, bands)
	for i, v := range pixel {
		y[i] = float64(v)
	}
	b.Run("dense", func(b *testing.B) {
		scan := proj.DenseScan()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scan.Score(pixel)
		}
	})
	b.Run("factored", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			proj.Apply(y, nil)
		}
	})
}

// --- Micro-benchmarks of the hot kernels --------------------------------

func BenchmarkKernelSAD(b *testing.B) {
	sc, _, _ := benchScenes(b)
	x := sc.Cube.PixelAt(10)
	y := sc.Cube.PixelAt(4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SAD(x, y)
	}
}

func BenchmarkKernelMEI(b *testing.B) {
	_, sc, _ := benchScenes(b)
	part, err := sc.Cube.Rows(0, 32)
	if err != nil {
		b.Fatal(err)
	}
	se := morph.Square(1)
	b.Run("imax2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			morph.MEI(part, se, 2)
		}
	})
	// What one of 16 ranks runs in bench's table5-compute at the paper's
	// imax = 5: 6 owned lines of the 96x64x64 seed-1 scene, with the
	// 5-line halo on either side.
	t5, err := scene.Generate(scene.Config{Lines: 96, Samples: 64, Bands: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	view, err := t5.Cube.Rows(43, 59)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("imax5-rank", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			morph.MEIRange(view, se, 5, 5, 11)
		}
	})
	// What one of 16 fully-het ranks runs in bench's pipeline-fanout: 4
	// owned lines of the 64x64x32 seed-1 scene with the 5-line halo, the
	// 32-band regime where the angles weigh most.
	pipe, err := scene.Generate(scene.Config{Lines: 64, Samples: 64, Bands: 32, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	pview, err := pipe.Cube.Rows(20, 34)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("pipe-rank", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			morph.MEIRange(pview, se, 5, 5, 9)
		}
	})
}

func BenchmarkKernelSceneGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := scene.Generate(scene.Config{Lines: 48, Samples: 32, Bands: 32, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelCubeIO(b *testing.B) {
	f := cube.MustNew(64, 64, 32)
	for i := range f.Data {
		f.Data[i] = float32(i % 251)
	}
	dir := b.TempDir()
	path := dir + "/bench.hc"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Save(path); err != nil {
			b.Fatal(err)
		}
		if _, err := cube.Load(path); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Scheduler throughput ----------------------------------------------

// BenchmarkSchedulerThroughput measures end-to-end jobs/sec through the
// internal/sched admission queue and worker pool at several queue depths,
// submitting fast sequential ATDCA runs on the reduced WTC timing scene.
// The result cache is disabled so every job pays the full analysis cost;
// ErrQueueFull is handled the way a client would, by waiting for the
// oldest outstanding job before retrying.
func BenchmarkSchedulerThroughput(b *testing.B) {
	_, timing, _ := benchScenes(b)
	params := core.DefaultParams()
	params.Targets = 4
	for _, depth := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			s := NewScheduler(SchedulerConfig{Workers: 4, QueueDepth: depth, CacheEntries: -1})
			defer s.Close()
			ctx := context.Background()
			spec := JobSpec{
				Mode:      ModeSequential,
				Algorithm: ATDCA,
				Cube:      timing.Cube,
				Params:    params,
				NoCache:   true,
			}
			pending := make([]*Job, 0, b.N)
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				for {
					job, err := s.Submit(ctx, spec)
					if err == nil {
						pending = append(pending, job)
						break
					}
					if !errors.Is(err, ErrQueueFull) {
						b.Fatal(err)
					}
					if len(pending) == 0 {
						b.Fatal("queue full with no outstanding jobs")
					}
					<-pending[0].Done()
					pending = pending[1:]
				}
			}
			for _, j := range pending {
				<-j.Done()
				if err := j.Err(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "jobs/sec")
		})
	}
}

// --- Pipeline orchestration: fan-out stars through internal/flow ------

// BenchmarkPipelineFanout measures end-to-end pipeline latency through
// the flow engine at several fan-out widths: one scene stage feeding W
// sequential ATDCA analyze stages plus a synthesize stage, on the
// reduced WTC timing scene. The scheduler's result cache is disabled so
// every iteration pays the full analysis cost; what remains on top of
// W times the sequential run is the orchestration overhead (stage
// settling, journalless bookkeeping, synthesis scoring).
func BenchmarkPipelineFanout(b *testing.B) {
	_, timing, _ := benchScenes(b)
	provide := func(scene.Config) (*scene.Scene, string, bool, error) {
		return timing, sched.CubeDigest(timing.Cube), true, nil
	}
	params := core.DefaultParams()
	params.Targets = 4
	for _, width := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("width-%d", width), func(b *testing.B) {
			s := NewScheduler(SchedulerConfig{Workers: 4, QueueDepth: 64, CacheEntries: -1})
			defer s.Close()
			eng, err := flow.New(flow.Config{Scheduler: s, Scenes: provide})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			spec := flow.PipelineSpec{Name: "bench-fanout"}
			spec.Stages = append(spec.Stages, flow.StageSpec{
				Name: "scene", Kind: flow.KindScene, Scene: timing.Config,
			})
			after := make([]string, 0, width)
			for i := 0; i < width; i++ {
				name := fmt.Sprintf("atdca-%d", i)
				job := JobSpec{Mode: ModeSequential, Algorithm: ATDCA, Params: params, NoCache: true}
				spec.Stages = append(spec.Stages, flow.StageSpec{
					Name: name, Kind: flow.KindAnalyze, After: []string{"scene"}, Job: job,
				})
				after = append(after, name)
			}
			spec.Stages = append(spec.Stages, flow.StageSpec{
				Name: "report", Kind: flow.KindSynthesize, After: after,
			})
			ctx := context.Background()
			var vsec float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := eng.Submit(ctx, spec)
				if err != nil {
					b.Fatal(err)
				}
				<-p.Done()
				if err := p.Err(); err != nil {
					b.Fatal(err)
				}
				vsec = p.Status().VirtualSeconds
			}
			b.StopTimer()
			b.ReportMetric(vsec, "vsec")
		})
	}
}
