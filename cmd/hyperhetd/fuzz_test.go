package main

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"

	hyperhet "repro"
)

// FuzzSubmitJSON drives the /submit decode-and-parse path with arbitrary
// bodies. The invariant under fuzz: malformed input yields an error (the
// handler's 400), never a panic, and never a JobSpec that passes parsing
// with a scene that is unbounded or that the generator would refuse —
// generation is deferred to a worker, so parseSubmit is the only place a
// bad scene can still be a 400. Scene materialization is deliberately
// outside the fuzzed path — parseSubmit is pure and allocates no cube —
// so the fuzzer can run millions of executions cheaply.
func FuzzSubmitJSON(f *testing.F) {
	seeds := []string{
		tinyJob,
		tracedJob,
		`{}`,
		`{"algorithm": "ufcls", "variant": "homo", "network": "part-het", "priority": "interactive"}`,
		`{"algorithm": "pct", "classes": 5, "scaled": true, "scene": {"lines": 32, "samples": 32, "bands": 16}}`,
		`{"algorithm": "morph", "mode": "run", "network": "thunderhead", "cpus": 4}`,
		`{"mode": "adaptive", "network": "fully-homo", "timeout_ms": 5000}`,
		`{"algorithm": "atdca", "faults": {"crashes": [{"rank": 2, "at": 0.5}], "max_attempts": 3, "recovery": true}}`,
		`{"algorithm": "atdca", "faults": {"seed": 7}}`,
		// Malformed shapes the decoder or parser must reject cleanly.
		`{"algorithm": "atdca", "mode": "sequential", "cycle_time": -1}`,
		`{"algorithm": "nope"}`,
		`{"priority": "urgent"}`,
		`{"timeout_ms": -5}`,
		`{"targets": -1}`,
		`{"scene": {"lines": -3}}`,
		`{"scene": {"lines": 15}}`,
		`{"scene": {"bands": 7}, "no_cache": true}`,
		`{"scene": {"lines": 2147483647, "samples": 2147483647, "bands": 2147483647}}`,
		`{"faults": {"seed": 1, "crashes": [{"rank": 0, "at": 1}]}}`,
		`{"unknown_field": true}`,
		`{"algorithm": ["not", "a", "string"]}`,
		`not json at all`,
		`{"scene": {"snr_db": 1e308}}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var req submitRequest
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return // the handler 400s here
		}
		spec, cfg, err := parseSubmit(&req)
		if err != nil {
			return // the handler 400s here
		}
		// A spec that parsed must be within the server's scene bounds …
		voxels := int64(cfg.Lines) * int64(cfg.Samples) * int64(cfg.Bands)
		if voxels <= 0 || voxels > maxSceneVoxels {
			t.Fatalf("parsed scene escapes the cap: %+v (%d voxels)", cfg, voxels)
		}
		// … name a scene the generator accepts, with nothing allocated yet …
		if err := cfg.Validate(); err != nil {
			t.Fatalf("parsed scene would fail on the worker, not the POST: %v", err)
		}
		if spec.Cube != nil || spec.Materialize != nil {
			t.Fatalf("parseSubmit attached a cube: %+v", spec)
		}
		// … and must carry coherent fields for its mode.
		switch spec.Mode {
		case "run":
			if spec.Network == nil {
				t.Fatalf("networked spec without network: %+v", spec)
			}
			if err := spec.Variant.Check(spec.Algorithm); err != nil {
				t.Fatalf("run spec the scheduler would refuse: %v", err)
			}
		case "sequential":
			if spec.CycleTime < 0 {
				t.Fatalf("sequential spec with negative cycle-time: %+v", spec)
			}
		}
		if spec.Timeout < 0 {
			t.Fatalf("negative timeout survived parsing: %+v", spec)
		}
	})
}

// FuzzPipelineJSON drives the /pipelines decode-parse-validate path with
// arbitrary bodies. The invariant: malformed input yields an error (the
// handler's 400), never a panic; a pipeline that parses AND validates
// is a star whose scene stage sits within the server's scene bounds. parsePipeline is pure — no scene is generated, no job is
// submitted — so the fuzzer exercises the full admission path cheaply.
func FuzzPipelineJSON(f *testing.F) {
	seeds := []string{
		fanoutPipeline,
		slowPipeline,
		`{}`,
		`{"stages": []}`,
		`{"name": "solo", "stages": [{"name": "s", "kind": "scene"}]}`,
		`{"stages": [
			{"name": "s", "kind": "scene", "scene": {"lines": 32, "samples": 32, "bands": 16, "seed": 1}},
			{"name": "a", "kind": "analyze", "after": ["s"],
			 "job": {"algorithm": "atdca", "network": "fully-het", "scaled": true}},
			{"name": "z", "kind": "synthesize", "after": ["a"]}]}`,
		`{"stages": [
			{"name": "s", "kind": "scene"},
			{"name": "a", "kind": "analyze", "after": ["s"],
			 "job": {"algorithm": "ufcls", "faults": {"crashes": [{"rank": 2, "at": 0.5}], "max_attempts": 3}}}]}`,
		// Defects the parser or validator must reject cleanly.
		`{"stages": [{"name": "a", "kind": "analyze", "after": ["a"], "job": {"algorithm": "atdca"}}]}`,
		`{"stages": [{"name": "s", "kind": "scene"}, {"name": "s", "kind": "scene"}]}`,
		`{"stages": [
			{"name": "x", "kind": "synthesize", "after": ["y"]},
			{"name": "y", "kind": "synthesize", "after": ["x"]}]}`,
		`{"stages": [{"name": "w", "kind": "mystery"}]}`,
		`{"stages": [{"name": "s", "kind": "scene", "scene": {"lines": -1}}]}`,
		`{"stages": [{"name": "s", "kind": "scene", "job": {"algorithm": "atdca"}}]}`,
		`{"stages": [{"name": "a", "kind": "analyze", "after": ["s"],
		  "job": {"algorithm": "atdca", "scene": {"seed": 4}}},
		  {"name": "s", "kind": "scene"}]}`,
		`{"stages": [{"kind": "scene"}]}`,
		`{"unknown": 1}`,
		`not json`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var req pipelineRequest
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return // the handler 400s here
		}
		spec, err := parsePipeline(&req)
		if err != nil {
			return // the handler 400s here
		}
		if err := spec.Validate(); err != nil {
			return // the engine rejects, the handler 400s
		}
		// A validated pipeline is a star within the stage cap: one scene
		// stage with no dependencies, analyses after exactly that scene, at
		// most one synthesis after every analysis once …
		if len(spec.Stages) > maxPipelineStages {
			t.Fatalf("validated pipeline has %d stages, over the cap of %d", len(spec.Stages), maxPipelineStages)
		}
		var scene string
		var analyses []string
		var synths []hyperhet.StageSpec
		for _, st := range spec.Stages {
			switch st.Kind {
			case hyperhet.StageScene:
				if scene != "" || len(st.After) != 0 {
					t.Fatalf("validated pipeline has a second or dependent scene stage %q", st.Name)
				}
				scene = st.Name
			case hyperhet.StageAnalyze:
				analyses = append(analyses, st.Name)
			case hyperhet.StageSynthesize:
				synths = append(synths, st)
			default:
				t.Fatalf("validated stage %q has kind %q", st.Name, st.Kind)
			}
		}
		if scene == "" || len(synths) > 1 {
			t.Fatalf("validated pipeline has scene %q and %d syntheses", scene, len(synths))
		}
		for _, st := range spec.Stages {
			if st.Kind == hyperhet.StageAnalyze && !slices.Equal(st.After, []string{scene}) {
				t.Fatalf("validated analysis %q runs after %v, not the scene %q", st.Name, st.After, scene)
			}
		}
		slices.Sort(analyses)
		for _, st := range synths {
			after := slices.Clone(st.After)
			slices.Sort(after)
			if len(analyses) == 0 || !slices.Equal(after, analyses) {
				t.Fatalf("validated synthesis %q runs after %v, not every analysis %v once", st.Name, st.After, analyses)
			}
		}
		// … and every scene stage is within the server's bounds.
		for _, st := range spec.Stages {
			if st.Kind != hyperhet.StageScene {
				continue
			}
			voxels := int64(st.Scene.Lines) * int64(st.Scene.Samples) * int64(st.Scene.Bands)
			if voxels <= 0 || voxels > maxSceneVoxels {
				t.Fatalf("validated scene stage escapes the cap: %+v (%d voxels)", st.Scene, voxels)
			}
			if err := st.Scene.Validate(); err != nil {
				t.Fatalf("validated scene stage would fail at run time, not the POST: %v", err)
			}
		}
	})
}
