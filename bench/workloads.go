package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
)

// sceneReq mirrors hyperhetd's scene request document.
type sceneReq struct {
	Lines   int   `json:"lines,omitempty"`
	Samples int   `json:"samples,omitempty"`
	Bands   int   `json:"bands,omitempty"`
	Seed    int64 `json:"seed"`
}

// jobReq mirrors the fields of hyperhetd's POST /submit document the
// benchmark uses. Inside a pipeline stage the scene is left out.
type jobReq struct {
	Algorithm string    `json:"algorithm"`
	Variant   string    `json:"variant,omitempty"`
	Mode      string    `json:"mode,omitempty"`
	Network   string    `json:"network,omitempty"`
	CPUs      int       `json:"cpus,omitempty"`
	Priority  string    `json:"priority,omitempty"`
	Targets   int       `json:"targets,omitempty"`
	Classes   int       `json:"classes,omitempty"`
	NoCache   bool      `json:"no_cache,omitempty"`
	Scene     *sceneReq `json:"scene,omitempty"`
}

type stageReq struct {
	Name  string    `json:"name"`
	Kind  string    `json:"kind"`
	After []string  `json:"after,omitempty"`
	Scene *sceneReq `json:"scene,omitempty"`
	Job   *jobReq   `json:"job,omitempty"`
}

type pipelineReq struct {
	Name   string     `json:"name"`
	Stages []stageReq `json:"stages"`
}

// template is one distinct request. Key names its reference result in
// expected.json; requests that differ only in priority or no_cache share a
// key because the result does not depend on either.
type template struct {
	Key      string
	Path     string // /submit or /pipelines
	Body     []byte
	Pipeline bool
}

// workload is one traffic mix. Templates and Cycle are constants: the seed
// chooses only the order within a cycle (and, open loop, arrival times), so
// a whole number of cycles is the same multiset of work for every seed and
// every exact count repeats.
type workload struct {
	Name      string
	Why       string
	Journal   bool
	OpenRate  float64 // ops/s; 0 = closed loop
	Ungated   string  // why BENCHMARK.json does not list it; "" = it does
	Templates []template
	Cycle     []int // template index per op of one cycle

	// ReplayScene and ReplayJob are what the in-process layer replay runs:
	// the scene geometry and the job the workload is mostly made of.
	ReplayScene sceneReq
	ReplayJob   jobReq
}

const (
	clients     = 2 // connections and closed-loop clients: nproc on the reference box
	serverFlags = "-workers 2 -queue 64 -cache 128 -retain 64"
)

// Scene geometries. table5Scene is smaller than hyperhetd's 144x96x64
// default so that a 10 s run holds at least 200 ops on two cores; the churn
// and heavy mixed-open ops keep the default.
var (
	defaultScene = sceneReq{Lines: 144, Samples: 96, Bands: 64}
	table5Scene  = sceneReq{Lines: 96, Samples: 64, Bands: 64}
	tinyScene    = sceneReq{Lines: 24, Samples: 16, Bands: 8}
	pipeScene    = sceneReq{Lines: 64, Samples: 64, Bands: 32}
)

var algorithms = []string{"atdca", "ufcls", "pct", "morph"}

func withSeed(s sceneReq, seed int64) sceneReq {
	s.Seed = seed
	return s
}

func jobKey(j jobReq, s sceneReq) string {
	variant := j.Variant
	if variant == "" {
		variant = "hetero"
	}
	where := j.Mode
	if where == "" {
		where = j.Network
		if j.CPUs > 0 {
			where = fmt.Sprintf("%s-%d", where, j.CPUs)
		}
	}
	return fmt.Sprintf("job/%s/%s/%s/t%dc%d/%dx%dx%d-s%d", j.Algorithm, variant, where,
		j.Targets, j.Classes, s.Lines, s.Samples, s.Bands, s.Seed)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request documents are plain structs
	}
	return b
}

func jobTemplate(j jobReq, s sceneReq) template {
	key := jobKey(j, s)
	j.Scene = &s
	return template{Key: key, Path: "/submit", Body: mustJSON(j)}
}

// repeatEach returns a cycle naming each of templates lo..hi-1 n times.
func repeatEach(lo, hi, n int) []int {
	var c []int
	for r := 0; r < n; r++ {
		for i := lo; i < hi; i++ {
			c = append(c, i)
		}
	}
	return c
}

// tinyTemplates is the small-job pool shared by smalljob-durable and
// mixed-open: four algorithms, sequential and thunderhead-4, eight scenes.
func tinyTemplates(priority string, noCache bool, scenes int) []template {
	var ts []template
	for seed := int64(1); seed <= int64(scenes); seed++ {
		for _, alg := range algorithms {
			for _, seq := range []bool{true, false} {
				j := jobReq{Algorithm: alg, Targets: 4, Classes: 4, Priority: priority, NoCache: noCache}
				if seq {
					j.Mode = "sequential"
				} else {
					j.Network, j.CPUs = "thunderhead", 4
				}
				ts = append(ts, jobTemplate(j, withSeed(tinyScene, seed)))
			}
		}
	}
	return ts
}

func table5Compute() workload {
	w := workload{
		Name: "table5-compute",
		Why:  "Table 5 grid with no_cache on pre-warmed scenes: kernels, par, mpi and algo are >95% of an op, framework <1%",

		ReplayScene: withSeed(table5Scene, 1),
		ReplayJob:   jobReq{Algorithm: "pct", Network: "fully-het", Targets: 8},
	}
	type cell struct {
		variant, network string
		cpus             int
	}
	var cells []cell
	for _, v := range []string{"hetero", "homo"} {
		for _, n := range []string{"fully-het", "fully-homo", "part-het", "part-homo"} {
			cells = append(cells, cell{v, n, 0})
		}
	}
	cells = append(cells, cell{"hetero", "thunderhead", 4}, cell{"hetero", "thunderhead", 16})
	i := 0
	for _, alg := range algorithms {
		for _, c := range cells {
			j := jobReq{Algorithm: alg, Variant: c.variant, Network: c.network, CPUs: c.cpus, Targets: 8, NoCache: true}
			w.Templates = append(w.Templates, jobTemplate(j, withSeed(table5Scene, int64(1+i%3))))
			i++
		}
	}
	w.Cycle = repeatEach(0, len(w.Templates), 1)
	return w
}

func smalljobDurable() workload {
	w := workload{
		Name:    "smalljob-durable",
		Why:     "tiny jobs with -journal on: HTTP parse/marshal, queue, settle and three fsyncs per job are the whole op",
		Journal: true,

		ReplayScene: withSeed(tinyScene, 1),
		ReplayJob:   jobReq{Algorithm: "atdca", Mode: "sequential", Targets: 4, Classes: 4},
	}
	w.Templates = tinyTemplates("", true, 8) // 64 no_cache
	fresh := len(w.Templates)
	w.Templates = append(w.Templates, tinyTemplates("", false, 2)...) // 16 cacheable
	// 256 fresh + 112 repeats: 70% no_cache, 30% result-cache hits.
	w.Cycle = append(repeatEach(0, fresh, 4), repeatEach(fresh, len(w.Templates), 7)...)
	return w
}

func sceneChurn() workload {
	w := workload{
		Name: "scene-churn",
		Why:  "result-cache hits over 32 scenes against hyperhetd's 16-entry scene cache: the op is scene.Generate + CubeDigest inside the POST",

		ReplayScene: withSeed(defaultScene, 1),
		ReplayJob:   jobReq{Algorithm: "pct", Mode: "sequential", Targets: 8},
	}
	for seed := int64(1); seed <= 32; seed++ {
		j := jobReq{Algorithm: "pct", Mode: "sequential", Targets: 8}
		w.Templates = append(w.Templates, jobTemplate(j, withSeed(defaultScene, seed)))
	}
	w.Cycle = repeatEach(0, len(w.Templates), 5)
	return w
}

func pipelineTemplate(s sceneReq, noCache bool) template {
	p := pipelineReq{Name: "bench-fanout"}
	p.Stages = append(p.Stages, stageReq{Name: "scene", Kind: "scene", Scene: &s})
	for _, alg := range algorithms {
		p.Stages = append(p.Stages, stageReq{Name: alg, Kind: "analyze", After: []string{"scene"},
			Job: &jobReq{Algorithm: alg, Network: "fully-het", Targets: 8, NoCache: noCache}})
	}
	p.Stages = append(p.Stages, stageReq{Name: "report", Kind: "synthesize", After: algorithms})
	return template{
		Key:      fmt.Sprintf("pipe/fully-het/t8/%dx%dx%d-s%d", s.Lines, s.Samples, s.Bands, s.Seed),
		Path:     "/pipelines",
		Body:     mustJSON(p),
		Pipeline: true,
	}
}

func pipelineFanout() workload {
	w := workload{
		Name: "pipeline-fanout",
		Why:  "scene -> four analyses on fully-het -> synthesize: flow ordering, memoization and synthesis; an op waits for its slowest stage",

		ReplayScene: withSeed(pipeScene, 1),
		ReplayJob:   jobReq{Algorithm: "atdca", Network: "fully-het", Targets: 8},
	}
	const scenes = 8
	for seed := int64(1); seed <= scenes; seed++ {
		w.Templates = append(w.Templates, pipelineTemplate(withSeed(pipeScene, seed), true))
	}
	for seed := int64(1); seed <= scenes; seed++ {
		w.Templates = append(w.Templates, pipelineTemplate(withSeed(pipeScene, seed), false))
	}
	// 75% fresh analyses, 25% memoizable repeats.
	w.Cycle = append(repeatEach(0, scenes, 3), repeatEach(scenes, 2*scenes, 1)...)
	return w
}

func mixedOpen() workload {
	w := workload{
		Name:     "mixed-open",
		Why:      "open loop at a fixed 120 ops/s, 98% tiny interactive + 2% batch PCT: latency under arrivals, queue wait and priority ordering",
		OpenRate: 120,
		Ungated:  "ms-scale latencies at 15% utilisation double whenever the shared host is busy: op_p90_ms moved 30-84% between identical runs in three of six measurement windows, beyond the largest bound a gated metric may have",

		ReplayScene: withSeed(tinyScene, 1),
		ReplayJob:   jobReq{Algorithm: "atdca", Mode: "sequential", Targets: 4, Classes: 4, Priority: "interactive"},
	}
	w.Templates = tinyTemplates("interactive", true, 8)
	tiny := len(w.Templates)
	for seed := int64(1); seed <= 2; seed++ {
		w.Templates = append(w.Templates, jobTemplate(
			jobReq{Algorithm: "pct", Network: "fully-het", Targets: 8, Priority: "batch", NoCache: true}, withSeed(pipeScene, seed)))
	}
	// 100 ops: 98 tiny, 2 heavy.
	for k := 0; k < 98; k++ {
		w.Cycle = append(w.Cycle, k%tiny)
	}
	for k := 0; k < 2; k++ {
		w.Cycle = append(w.Cycle, tiny+k)
	}
	return w
}

func allWorkloads() []workload {
	return []workload{table5Compute(), smalljobDurable(), sceneChurn(), pipelineFanout(), mixedOpen()}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads() {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opSource deals template indices cycle by cycle, each cycle in a fresh
// seed-derived order. It is not safe for concurrent use; the runner guards
// it.
type opSource struct {
	rng   *rand.Rand
	cycle []int
	order []int
	pos   int
}

func newOpSource(w workload, seed int64) *opSource {
	return &opSource{rng: rand.New(rand.NewSource(seed)), cycle: w.Cycle}
}

// atCycleStart reports whether the next op begins a new cycle.
func (s *opSource) atCycleStart() bool { return s.pos == len(s.order) }

func (s *opSource) next() int {
	if s.pos == len(s.order) {
		s.order = append(s.order[:0], s.cycle...)
		s.rng.Shuffle(len(s.order), func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
		s.pos = 0
	}
	t := s.order[s.pos]
	s.pos++
	return t
}

// arrival is one open-loop op: which template, due how long after start.
type arrival struct {
	Template int
	DueNS    int64
}

// openSchedule precomputes the whole open-loop run from the seed: whole
// cycles of ops, rate*seconds of them, at arrival times drawn uniformly over
// the run — a Poisson process given its count, so that every seed offers
// exactly the named rate.
func openSchedule(w workload, seed int64, seconds float64) []arrival {
	n := int(w.OpenRate*seconds) / len(w.Cycle) * len(w.Cycle)
	if n == 0 {
		n = len(w.Cycle)
	}
	span := float64(n) / w.OpenRate * 1e9
	src := newOpSource(w, seed)
	times := rand.New(rand.NewSource(seed ^ 0x5eed))
	due := make([]int64, n)
	for i := range due {
		due[i] = int64(times.Float64() * span)
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{Template: src.next(), DueNS: due[i]}
	}
	return out
}
