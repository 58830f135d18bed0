// Package flow runs analysis pipelines on the internal/sched scheduler.
// A pipeline is a star: one scene stage, the analyze stages that run
// algorithms on that scene, and an optional synthesize stage that scores
// every analysis against the scene's ground truth. The engine
// materializes the scene, submits every analysis concurrently through
// the scheduler's worker pool, and synthesizes once they all completed.
// Analysis results are memoized through the scheduler's LRU cache, so
// pipelines that share a scene and an analysis compute it once.
//
// The star is the paper's evaluation as one submission: one scene pushed
// through the detectors and classifiers, then scored together (Tables 3
// and 4). When the scheduler has a journal, pipeline lifecycle edges are
// appended through it and are durable: a restarted engine resumes
// unfinished pipelines without redoing their completed stages.
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

// StageKind is the type of work one stage performs; a pipeline's kinds
// fix its shape (see PipelineSpec.Validate).
type StageKind string

const (
	// KindScene generates (or fetches from the provider's cache) the
	// pipeline's synthetic scene: the cube plus ground truth every
	// analysis consumes.
	KindScene StageKind = "scene"
	// KindAnalyze runs one algorithm on the scene through the
	// scheduler; its output is the run report.
	KindAnalyze StageKind = "analyze"
	// KindSynthesize folds the reports of every analysis into an
	// accuracy/timing synthesis against the scene's ground truth.
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
	// After lists the names of the stages this one consumes: none for the
	// scene stage, the scene stage for an analyze stage, every analyze
	// stage for the synthesize stage.
	After []string
	// Scene is the scene configuration of a KindScene stage.
	Scene scene.Config
	// Job is the job template of a KindAnalyze stage. The engine fills
	// Cube and CubeDigest from the scene stage and forces
	// NoJournal (stage durability is owned by the pipeline's records).
	Job sched.JobSpec
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

// Validation errors share this sentinel so callers can map any spec
// defect to one admission failure class (hyperhetd's 400).
var ErrInvalidPipeline = errors.New("flow: invalid pipeline")

func specErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidPipeline, fmt.Sprintf(format, args...))
}

// Validate checks that the pipeline is a star. Names come first (present,
// at most maxStageName characters, unique), then references and kinds,
// then the shape: exactly one scene stage, with no dependencies; every
// analyze stage after exactly that scene; and at most one synthesize
// stage, after every analyze stage once, in any order. It mutates
// nothing.
func (spec *PipelineSpec) Validate() error {
	if len(spec.Stages) == 0 {
		return specErr("no stages")
	}
	byName := make(map[string]int, len(spec.Stages))
	for i, st := range spec.Stages {
		if st.Name == "" {
			return specErr("stage %d has no name", i)
		}
		if len(st.Name) > maxStageName {
			return specErr("stage name %.20q... exceeds %d characters", st.Name, maxStageName)
		}
		if prev, dup := byName[st.Name]; dup {
			return specErr("duplicate stage name %q (stages %d and %d)", st.Name, prev, i)
		}
		byName[st.Name] = i
	}

	var scene, synth *StageSpec
	analyses := 0
	for i := range spec.Stages {
		st := &spec.Stages[i]
		for _, dep := range st.After {
			if _, ok := byName[dep]; !ok {
				return specErr("stage %q depends on unknown stage %q", st.Name, dep)
			}
		}
		switch st.Kind {
		case KindScene:
			if scene != nil {
				return specErr("not a star: second scene stage %q (a pipeline analyzes one scene, stage %q)", st.Name, scene.Name)
			}
			if len(st.After) != 0 {
				return specErr("not a star: scene stage %q cannot depend on other stages", st.Name)
			}
			scene = st
		case KindAnalyze:
			analyses++
		case KindSynthesize:
			if synth != nil {
				return specErr("not a star: second synthesize stage %q (a pipeline has at most one, stage %q)", st.Name, synth.Name)
			}
			synth = st
		default:
			return specErr("stage %q has unknown kind %q (want scene, analyze or synthesize)", st.Name, st.Kind)
		}
	}
	if scene == nil {
		return specErr("not a star: no scene stage")
	}
	for _, st := range spec.Stages {
		if st.Kind == KindAnalyze && (len(st.After) != 1 || st.After[0] != scene.Name) {
			return specErr("not a star: analyze stage %q must run after exactly the scene stage %q, not %q", st.Name, scene.Name, st.After)
		}
	}
	if synth == nil {
		return nil
	}
	listed := make(map[string]bool, len(synth.After))
	for _, dep := range synth.After {
		if kind := spec.Stages[byName[dep]].Kind; kind != KindAnalyze {
			return specErr("not a star: synthesize stage %q must run after analyze stages only; %q is a %s stage", synth.Name, dep, kind)
		}
		if listed[dep] {
			return specErr("synthesize stage %q lists analyze stage %q twice", synth.Name, dep)
		}
		listed[dep] = true
	}
	if analyses == 0 {
		return specErr("not a star: synthesize stage %q needs at least one analyze stage", synth.Name)
	}
	if len(listed) != analyses {
		return specErr("not a star: synthesize stage %q must run after every analyze stage (%d of %d listed)", synth.Name, len(listed), analyses)
	}
	return nil
}
