package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/balance"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/flow"
	"repro/internal/guard"
	"repro/internal/linalg"
	"repro/internal/morph"
	"repro/internal/mpi"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/platform"
	"repro/internal/scene"
	"repro/internal/sched"
	"repro/internal/spectral"
	"repro/internal/telemetry"
)

// The layer replay calls each layer's public functions in this process, on
// the scene and the job the workload is made of, and times them from
// outside: no layer is instrumented. It runs after the traced HTTP pass, with
// the server gone, so it has the machine to itself.

// replayBudget bounds how long one replayed call may be repeated for its
// median. The smoke tests set it to zero: one call each, structure only.
var replayBudget = 250 * time.Millisecond

// timeMS calls fn at least once and at most maxReps times, stopping early
// once the budget is spent, and returns the median call time in ms.
func timeMS(maxReps int, fn func() error) (float64, error) {
	var samples []float64
	var total time.Duration
	for len(samples) == 0 || (len(samples) < maxReps && total < replayBudget) {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d := time.Since(start)
		total += d
		samples = append(samples, ms(d))
	}
	return median(samples), nil
}

// timeLoopNS times calls too short to time one by one: batches of `batch`
// calls, median batch time divided by the batch size, in ns per call.
func timeLoopNS(batch int, fn func()) float64 {
	ms, _ := timeMS(25, func() error {
		for i := 0; i < batch; i++ {
			fn()
		}
		return nil
	})
	return ms * 1e6 / float64(batch)
}

func sceneConfig(s sceneReq) scene.Config {
	cfg := scene.WTCDefault()
	if s.Lines != 0 {
		cfg.Lines, cfg.Samples, cfg.Bands = s.Lines, s.Samples, s.Bands
	}
	cfg.Seed = s.Seed
	return cfg
}

// jobSpec resolves a request document the way hyperhetd's parseSubmit
// does, for the fields the benchmark's requests use.
func jobSpec(j jobReq, f *cube.Cube) (sched.JobSpec, error) {
	spec := sched.JobSpec{Cube: f, NoCache: j.NoCache, Params: core.DefaultParams(), Variant: core.Hetero}
	for _, a := range core.Algorithms {
		if string(a) == strings.ToUpper(j.Algorithm) {
			spec.Algorithm = a
		}
	}
	if spec.Algorithm == "" {
		return spec, fmt.Errorf("replay: unknown algorithm %q", j.Algorithm)
	}
	if j.Variant == "homo" {
		spec.Variant = core.Homo
	}
	if j.Targets != 0 {
		spec.Params.Targets = j.Targets
	}
	if j.Classes != 0 {
		spec.Params.PCT.Classes, spec.Params.Morph.Classes = j.Classes, j.Classes
	}
	if j.Priority == "interactive" {
		spec.Priority = sched.Interactive
	}
	if j.Mode == "sequential" {
		spec.Mode = sched.ModeSequential
		return spec, nil
	}
	spec.Mode = sched.ModeRun
	var err error
	spec.Network, err = network(j.Network, j.CPUs)
	return spec, err
}

func network(name string, cpus int) (*platform.Network, error) {
	switch name {
	case "fully-het":
		return platform.FullyHeterogeneous(), nil
	case "fully-homo":
		return platform.FullyHomogeneous(), nil
	case "part-het":
		return platform.PartiallyHeterogeneous(), nil
	case "part-homo":
		return platform.PartiallyHomogeneous(), nil
	case "thunderhead":
		return platform.Thunderhead(cpus)
	}
	return nil, fmt.Errorf("replay: unknown network %q", name)
}

// layerReplay measures every `R` metric on the workload's replay scene and
// job. scratch is a directory under bench/out for the files it writes;
// journalDir, when set, is the journal the traced pass left behind.
func layerReplay(w *workload, scratch, journalDir string) (map[string]float64, error) {
	m := make(map[string]float64)
	var err error
	fail := func(what string, e error) (map[string]float64, error) {
		return nil, fmt.Errorf("replay %s: %w", what, e)
	}

	// scene, cube
	cfg := sceneConfig(w.ReplayScene)
	var sc *scene.Scene
	if m["scene.generate_ms"], err = timeMS(5, func() (e error) { sc, e = scene.Generate(cfg); return }); err != nil {
		return fail("scene.Generate", err)
	}
	f := sc.Cube
	voxels := float64(len(f.Data))
	m["scene.generate_mvoxel_per_s"] = voxels / 1e6 / (m["scene.generate_ms"] / 1e3)
	if m["cube.interleave_ms"], err = timeMS(5, func() error { _, e := f.Samples3D(cube.BSQ); return e }); err != nil {
		return fail("cube.Samples3D", err)
	}
	cubePath := filepath.Join(scratch, "replay.hc")
	if m["cube.save_load_ms"], err = timeMS(3, func() error {
		if e := f.Save(cubePath); e != nil {
			return e
		}
		_, e := cube.Load(cubePath)
		return e
	}); err != nil {
		return fail("cube.Save/Load", err)
	}

	// sched: digest, an in-process job, its report, the journal
	m["sched.cube_digest_ms"], _ = timeMS(5, func() error { sched.CubeDigest(f); return nil })
	m["sched.cube_digest_gb_per_s"] = float64(f.SizeBytes()) / 1e9 / (m["sched.cube_digest_ms"] / 1e3)
	spec, err := jobSpec(w.ReplayJob, f)
	if err != nil {
		return nil, err
	}
	spec.NoCache = true
	spec.CubeDigest = sched.CubeDigest(f)
	reg := telemetry.NewRegistry()
	s := sched.New(sched.Config{Workers: clients, Registry: reg})
	defer s.Close()
	var rep *core.RunReport
	if m["sched.inproc_job_ms_p50"], err = timeMS(15, func() error {
		j, e := s.Submit(context.Background(), spec)
		if e != nil {
			return e
		}
		<-j.Done()
		rep = j.Report()
		return j.Err()
	}); err != nil {
		return fail("sched job", err)
	}
	var repJSON []byte
	m["sched.report_marshal_ms"], _ = timeMS(15, func() (e error) { repJSON, e = json.Marshal(rep); return })
	m["sched.report_kb"] = float64(len(repJSON)) / 1024
	jl, err := sched.OpenJournal(filepath.Join(scratch, "replay-journal"))
	if err != nil {
		return fail("sched.OpenJournal", err)
	}
	n := 0
	m["sched.journal_append_ms_p50"], err = timeMS(40, func() error {
		n++
		return jl.Append(sched.Record{Type: "finished", Job: fmt.Sprintf("job-%d", n), State: "completed", Report: repJSON})
	})
	jl.Close()
	if err != nil {
		return fail("journal append", err)
	}
	m["sched.journal_replay_ms"], m["sched.journal_replay_records"] = 0, 0
	if journalDir != "" {
		var st *sched.JournalState
		if m["sched.journal_replay_ms"], err = timeMS(3, func() (e error) { st, e = sched.ReplayJournalState(journalDir); return }); err != nil {
			return fail("journal replay", err)
		}
		if st != nil {
			m["sched.journal_replay_records"] = float64(st.Stats.Records)
		}
	}

	// telemetry: the registry the in-process scheduler just filled
	var text bytes.Buffer
	m["telemetry.write_prometheus_ms"], _ = timeMS(15, func() error { text.Reset(); return reg.WritePrometheus(&text) })
	series, err := parseProm(&text)
	if err != nil {
		return fail("telemetry exposition", err)
	}
	m["telemetry.series"] = float64(len(series))

	// core: the four algorithms on fully-het, and the plain sequential baseline
	het := platform.FullyHeterogeneous()
	params := spec.Params
	for _, alg := range core.Algorithms {
		name := strings.ToLower(string(alg))
		if m["core.run_ms."+name], err = timeMS(3, func() error { _, e := core.Run(het, alg, core.Hetero, f, params); return e }); err != nil {
			return fail("core.Run "+name, err)
		}
		if m["core.seq_ms."+name], err = timeMS(3, func() error { _, e := core.RunSequential(0.0072, alg, f, params); return e }); err != nil {
			return fail("core.RunSequential "+name, err)
		}
	}

	// balance: ATDCA fully-het, demand-driven
	var balanced *core.RunReport
	ctx := core.WithBalance(context.Background(), balance.DefaultPolicy())
	if m["balance.run_ms"], err = timeMS(3, func() (e error) {
		balanced, e = core.RunContext(ctx, het, core.ATDCA, core.Hetero, f, params)
		return
	}); err != nil {
		return fail("balanced run", err)
	}
	m["balance.d_all"], m["balance.chunks"] = balanced.DAll, float64(balanced.BalanceChunks)

	// checkpoint: the last round snapshot of a checkpointed ATDCA run
	var store checkpoint.MemStore
	if _, err := core.RunContext(core.WithCheckpointer(context.Background(), &store), het, core.ATDCA, core.Hetero, f, params); err != nil {
		return fail("checkpointed run", err)
	}
	snap, ok := store.Latest()
	if !ok {
		return fail("checkpointed run", fmt.Errorf("no snapshot saved"))
	}
	m["checkpoint.kb"] = float64(len(checkpoint.Encode(snap))) / 1024
	m["checkpoint.encode_us"] = timeLoopNS(200, func() { checkpoint.Encode(snap) }) / 1e3
	files, err := checkpoint.NewFileStore(filepath.Join(scratch, "replay-checkpoint"))
	if err != nil {
		return fail("checkpoint store", err)
	}
	if m["checkpoint.save_ms"], err = timeMS(20, func() error { return files.Save(snap) }); err != nil {
		return fail("checkpoint save", err)
	}

	// partition
	m["partition.wea_us"] = timeLoopNS(200, func() {
		partition.Heterogeneous{}.Partition(f.Lines, f.Samples, f.Bands, het.Procs)
	}) / 1e3

	// mpi: an empty 16-rank program, and one matched Send/Recv
	m["mpi.spinup_us"] = timeLoopNS(20, func() {
		mpi.NewWorld(het).Run(func(*mpi.Comm) any { return nil })
	}) / 1e3
	pair, err := platform.Thunderhead(2)
	if err != nil {
		return fail("thunderhead(2)", err)
	}
	const exchanges = 2000
	var perExchange float64
	if _, err := mpi.NewWorld(pair).Run(func(c *mpi.Comm) any {
		start := time.Now()
		for i := 0; i < exchanges; i++ {
			if c.Root() {
				c.Send(1, 1, i, 8)
				c.Recv(1, 2)
			} else {
				c.Recv(0, 1)
				c.Send(0, 2, i, 8)
			}
		}
		if c.Root() {
			perExchange = float64(time.Since(start).Nanoseconds()) / (2 * exchanges)
		}
		return nil
	}); err != nil {
		return fail("mpi ping-pong", err)
	}
	m["mpi.pingpong_us"] = perExchange / 1e3

	// par: an empty fan-out at the machine's budget and at budget 1
	fan := func() { par.Ranges(4096, 16, func(int, int, int) {}) }
	m["par.fanout_us"] = timeLoopNS(500, fan) / 1e3
	par.SetMaxWorkers(1)
	m["par.fanout_us_budget1"] = timeLoopNS(500, fan) / 1e3
	par.SetMaxWorkers(0)

	// kernels
	x, y := f.PixelAt(10), f.PixelAt(f.NumPixels()/2)
	m["spectral.sad_ns"] = timeLoopNS(20000, func() { spectral.SAD(x, y) })
	const t = 8
	u := linalg.NewMat(t, f.Bands)
	for i := 0; i < t; i++ {
		for b, v := range f.PixelAt(i * f.NumPixels() / t) {
			u.Set(i, b, float64(v))
		}
	}
	y64 := make([]float64, f.Bands)
	for b, v := range y {
		y64[b] = float64(v)
	}
	osp, err := linalg.NewOSP(u)
	if err != nil {
		return fail("linalg.NewOSP", err)
	}
	m["linalg.osp_apply_ns"] = timeLoopNS(5000, func() { osp.Apply(y64, nil) })
	solver := linalg.NewFCLSSolver(u.T())
	m["linalg.fcls_unmix_us"] = timeLoopNS(500, func() { solver.Unmix(y64) }) / 1e3
	m["linalg.gram_us"] = timeLoopNS(500, func() { linalg.Gram(u) }) / 1e3
	lines := f.Lines
	if lines > 32 {
		lines = 32
	}
	slab, err := f.Rows(0, lines)
	if err != nil {
		return fail("cube.Rows", err)
	}
	se := morph.Square(1)
	const imax = 2
	m["morph.mei_ms"], _ = timeMS(5, func() error { morph.MEI(slab, se, imax); return nil })
	m["morph.mei_mflops_per_s"] = morph.FlopsMEI(slab.NumPixels(), se.Size(), slab.Bands, imax) / 1e6 / (m["morph.mei_ms"] / 1e3)

	// guard
	g := guard.New(guard.Config{})
	m["guard.admit_ns"] = timeLoopNS(5000, func() { g.Admit(guard.Request{Class: 1, InFlight: 1}) })
	m["guard.observe_ns"] = timeLoopNS(5000, func() {
		g.ObserveDone(1, "", time.Millisecond, time.Millisecond, true, guard.OutcomeNeutral, false)
	})

	// flow: the fan-out pipeline on this scene, in process
	digest := spec.CubeDigest
	eng, err := flow.New(flow.Config{Scheduler: s, Scenes: func(scene.Config) (*scene.Scene, string, bool, error) {
		return sc, digest, true, nil
	}})
	if err != nil {
		return fail("flow.New", err)
	}
	defer eng.Close()
	pspec := flow.PipelineSpec{Name: "replay", Stages: []flow.StageSpec{{Name: "scene", Kind: flow.KindScene, Scene: cfg}}}
	var names []string
	for _, alg := range core.Algorithms {
		names = append(names, string(alg))
		pspec.Stages = append(pspec.Stages, flow.StageSpec{Name: string(alg), Kind: flow.KindAnalyze, After: []string{"scene"},
			Job: sched.JobSpec{Algorithm: alg, Variant: core.Hetero, Mode: sched.ModeRun, Network: het, Params: params, NoCache: true}})
	}
	pspec.Stages = append(pspec.Stages, flow.StageSpec{Name: "report", Kind: flow.KindSynthesize, After: names})
	if m["flow.inproc_pipeline_ms_p50"], err = timeMS(3, func() error {
		p, e := eng.Submit(context.Background(), pspec)
		if e != nil {
			return e
		}
		<-p.Done()
		return p.Err()
	}); err != nil {
		return fail("flow pipeline", err)
	}
	return m, nil
}
