// Package flow is a DAG pipeline orchestrator layered on the
// internal/sched scheduler: a Pipeline is a set of named stages — scene
// generations, algorithm runs, synthesis/compare steps — with explicit
// dependency edges. The engine validates the DAG, schedules every ready
// stage concurrently through the scheduler's worker pool, passes stage
// outputs (scenes, run reports) to dependents, and memoizes analysis
// results through the scheduler's existing LRU cache, so shared prefixes
// across pipelines are computed once.
//
// The stage vocabulary mirrors how the paper's building blocks compose
// into real remote-sensing workflows: generate or ingest a scene, fan
// out the detectors and classifiers over it, then synthesize an accuracy
// report against the scene's ground truth (the Table 3 + Table 4 story
// as one submission). When the scheduler has a journal, pipeline
// lifecycle edges are appended through it and are durable: a restarted
// engine resumes unfinished pipelines without redoing their completed
// stages.
//
// Pipelines are kept in the same sched.Ledger as the scheduler's jobs
// (ID minting and adoption, retained history, listing order), and every
// pipeline reaches its final state through one function, Engine.settle,
// in the scheduler's order: counters, ledger history, the terminal
// journal record, and only then the terminal state and Done().
package flow

import (
	"errors"
	"fmt"

	"repro/internal/scene"
	"repro/internal/sched"
)

// StageKind is the type of work one stage performs. The kind system is
// also the DAG's type system: edges are only valid between compatible
// kinds (scene -> analyze -> synthesize), and Validate rejects
// output-type mismatches before anything runs.
type StageKind string

const (
	// KindScene generates (or fetches from the provider's cache) a
	// synthetic scene; its output is the cube plus ground truth every
	// dependent analysis stage consumes.
	KindScene StageKind = "scene"
	// KindAnalyze runs one algorithm on its upstream scene through the
	// scheduler; its output is the run report.
	KindAnalyze StageKind = "analyze"
	// KindSynthesize folds the reports of its upstream analysis stages
	// into an accuracy/timing synthesis against scene ground truth.
	KindSynthesize StageKind = "synthesize"
)

// maxStageName bounds stage names; they appear in journal records,
// telemetry labels and URLs.
const maxStageName = 64

// StageSpec describes one pipeline stage.
type StageSpec struct {
	// Name identifies the stage within its pipeline (unique, non-empty).
	Name string
	// Kind selects the stage's work.
	Kind StageKind
	// After lists the names of the stages this one consumes: none for a
	// scene stage, exactly one scene stage for an analyze stage, one or
	// more analyze stages for a synthesize stage.
	After []string
	// Scene is the scene configuration of a KindScene stage.
	Scene scene.Config
	// Job is the job template of a KindAnalyze stage. The engine fills
	// Cube and CubeDigest from the upstream scene stage and forces
	// NoJournal (stage durability is owned by the pipeline's records).
	Job sched.JobSpec
	// Scaled makes a KindAnalyze stage charge full-scene work via
	// experiments.ScaledParams against the upstream scene's geometry.
	Scaled bool
}

// PipelineSpec describes one pipeline submission.
type PipelineSpec struct {
	// Name is an optional caller label echoed in the status document.
	Name string
	// Stages is the stage set; edge order within After is irrelevant.
	Stages []StageSpec
	// JournalPayload optionally carries the pipeline's raw submission
	// document (for hyperhetd, the verbatim POST /pipelines body) into
	// the journal's submitted record, so a restarted server can rebuild
	// the spec and resume the pipeline.
	JournalPayload []byte
}

// Validation errors share this sentinel so callers can map any DAG
// defect to one admission failure class (hyperhetd's 400).
var ErrInvalidPipeline = errors.New("flow: invalid pipeline")

func specErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidPipeline, fmt.Sprintf(format, args...))
}

// Validate checks the pipeline's DAG — names, references, acyclicity and
// edge typing — and returns the stage indices in one valid topological
// order. It mutates nothing.
func (spec *PipelineSpec) Validate(maxStages int) ([]int, error) {
	n := len(spec.Stages)
	if n == 0 {
		return nil, specErr("no stages")
	}
	if maxStages > 0 && n > maxStages {
		return nil, specErr("%d stages exceeds the limit of %d", n, maxStages)
	}

	byName := make(map[string]int, n)
	for i, st := range spec.Stages {
		if st.Name == "" {
			return nil, specErr("stage %d has no name", i)
		}
		if len(st.Name) > maxStageName {
			return nil, specErr("stage name %.20q... exceeds %d characters", st.Name, maxStageName)
		}
		if prev, dup := byName[st.Name]; dup {
			return nil, specErr("duplicate stage name %q (stages %d and %d)", st.Name, prev, i)
		}
		byName[st.Name] = i
	}

	// Reference checks before typing checks: an unknown or self-looping
	// edge is reported as such, not as a kind mismatch.
	adj := make([][]int, n) // dependency -> dependents
	indeg := make([]int, n) // dependencies per stage
	for i, st := range spec.Stages {
		seen := make(map[string]bool, len(st.After))
		for _, dep := range st.After {
			if dep == st.Name {
				return nil, specErr("stage %q depends on itself", st.Name)
			}
			j, ok := byName[dep]
			if !ok {
				return nil, specErr("stage %q depends on unknown stage %q", st.Name, dep)
			}
			if seen[dep] {
				return nil, specErr("stage %q lists dependency %q twice", st.Name, dep)
			}
			seen[dep] = true
			adj[j] = append(adj[j], i)
			indeg[i]++
		}
	}

	// Kahn's algorithm: the fold both orders the stages and detects
	// cycles (anything left with a positive in-degree sits on one).
	order := make([]int, 0, n)
	ready := make([]int, 0, n)
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	for len(ready) > 0 {
		i := ready[0]
		ready = ready[1:]
		order = append(order, i)
		for _, j := range adj[i] {
			if indeg[j]--; indeg[j] == 0 {
				ready = append(ready, j)
			}
		}
	}
	if len(order) != n {
		var cyclic []string
		for i, d := range indeg {
			if d > 0 {
				cyclic = append(cyclic, spec.Stages[i].Name)
			}
		}
		return nil, specErr("dependency cycle through %v", cyclic)
	}

	// Edge typing: the producer kind must match what the consumer kind
	// eats. This is the output-type system — a synthesize stage cannot
	// consume a scene (no report to score), an analyze stage cannot
	// consume another analyze stage's report (it needs a cube), and so on.
	for _, st := range spec.Stages {
		switch st.Kind {
		case KindScene:
			if len(st.After) != 0 {
				return nil, specErr("scene stage %q cannot depend on other stages", st.Name)
			}
		case KindAnalyze:
			if len(st.After) != 1 {
				return nil, specErr("analyze stage %q needs exactly one scene dependency, has %d", st.Name, len(st.After))
			}
			if dep := &spec.Stages[byName[st.After[0]]]; dep.Kind != KindScene {
				return nil, specErr("analyze stage %q consumes %q, which produces a %s output, not a scene",
					st.Name, dep.Name, dep.Kind)
			}
		case KindSynthesize:
			if len(st.After) == 0 {
				return nil, specErr("synthesize stage %q needs at least one analyze dependency", st.Name)
			}
			for _, depName := range st.After {
				if dep := &spec.Stages[byName[depName]]; dep.Kind != KindAnalyze {
					return nil, specErr("synthesize stage %q consumes %q, which produces a %s output, not a run report",
						st.Name, dep.Name, dep.Kind)
				}
			}
		default:
			return nil, specErr("stage %q has unknown kind %q (want scene, analyze or synthesize)", st.Name, st.Kind)
		}
	}
	return order, nil
}
