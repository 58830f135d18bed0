package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	hyperhet "repro"
)

// pipelineRequest is the body of POST /pipelines: a named star of stages.
//
//	{
//	  "name": "table3+4",
//	  "stages": [
//	    {"name": "scene", "kind": "scene",
//	     "scene": {"lines": 64, "samples": 32, "bands": 32, "seed": 7}},
//	    {"name": "atdca", "kind": "analyze", "after": ["scene"],
//	     "job": {"algorithm": "ATDCA", "network": "fully-het"}},
//	    {"name": "report", "kind": "synthesize", "after": ["atdca"]}
//	  ]
//	}
type pipelineRequest struct {
	Name   string                 `json:"name"`
	Stages []pipelineStageRequest `json:"stages"`
}

// pipelineStageRequest is one stage. The scene stage carries "scene";
// analyze stages carry "job" — a full submit document minus the scene,
// which comes from the scene stage; the synthesize stage carries only edges.
type pipelineStageRequest struct {
	Name  string         `json:"name"`
	Kind  string         `json:"kind"`
	After []string       `json:"after"`
	Scene *sceneRequest  `json:"scene"`
	Job   *submitRequest `json:"job"`
}

// maxPipelineStages bounds one request's stage count.
const maxPipelineStages = 32

// parsePipeline resolves a pipeline request into a flow PipelineSpec. It
// is pure — analyze stages reuse parseSubmit, scene stages reuse
// parseScene, nothing is allocated or generated — so the fuzzer drives
// it directly; shape defects are left to PipelineSpec.Validate. A
// "scaled" analyze stage charges full-scene work through ScaledParams
// against the scene stage's geometry, as a scaled POST /submit does
// against its own scene.
func parsePipeline(req *pipelineRequest) (hyperhet.PipelineSpec, error) {
	spec := hyperhet.PipelineSpec{Name: req.Name}
	if n := len(req.Stages); n > maxPipelineStages {
		return spec, fmt.Errorf("%w: %d stages exceeds the limit of %d", hyperhet.ErrInvalidPipeline, n, maxPipelineStages)
	}
	var scenes []hyperhet.SceneConfig
	var scaled []int // indices of the scaled analyze stages
	for i := range req.Stages {
		sr := &req.Stages[i]
		st := hyperhet.StageSpec{
			Name:  sr.Name,
			Kind:  hyperhet.StageKind(strings.ToLower(sr.Kind)),
			After: sr.After,
		}
		switch st.Kind {
		case hyperhet.StageScene:
			if sr.Job != nil {
				return spec, fmt.Errorf("stage %q: a scene stage takes no job", sr.Name)
			}
			var scReq sceneRequest
			if sr.Scene != nil {
				scReq = *sr.Scene
			}
			cfg, err := parseScene(scReq)
			if err != nil {
				return spec, fmt.Errorf("stage %q: %w", sr.Name, err)
			}
			st.Scene = cfg
			scenes = append(scenes, cfg)
		case hyperhet.StageAnalyze:
			if sr.Job == nil {
				return spec, fmt.Errorf("stage %q: an analyze stage needs a job", sr.Name)
			}
			if sr.Scene != nil || sr.Job.Scene != (sceneRequest{}) {
				return spec, fmt.Errorf("stage %q: the scene comes from the upstream stage, not the job", sr.Name)
			}
			jobSpec, _, err := parseSubmit(sr.Job)
			if err != nil {
				return spec, fmt.Errorf("stage %q: %w", sr.Name, err)
			}
			st.Job = jobSpec
			if sr.Job.Scaled {
				scaled = append(scaled, len(spec.Stages))
			}
		case hyperhet.StageSynthesize:
			if sr.Job != nil || sr.Scene != nil {
				return spec, fmt.Errorf("stage %q: a synthesize stage takes only dependencies", sr.Name)
			}
		}
		// Unknown kinds pass through for Validate's canonical error.
		spec.Stages = append(spec.Stages, st)
	}
	// Without exactly one scene stage Validate rejects the pipeline.
	if len(scenes) == 1 {
		for _, i := range scaled {
			spec.Stages[i].Job.Params = hyperhet.ScaledParams(spec.Stages[i].Job.Params, scenes[0])
		}
	}
	return spec, nil
}

func (s *server) handlePipelineSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeRetry(w, http.StatusServiceUnavailable, errors.New("server draining"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	var req pipelineRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	spec, err := parsePipeline(&req)
	if err != nil {
		s.logger.Warn("pipeline rejected", "error", err)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if s.journal != nil {
		spec.JournalPayload = body
	}
	// Pipelines outlive the submit request: derive from Background, not
	// r.Context().
	p, err := s.flow.Submit(context.Background(), spec)
	switch {
	case errors.Is(err, hyperhet.ErrInvalidPipeline):
		s.logger.Warn("pipeline rejected", "error", err)
		writeError(w, http.StatusBadRequest, err)
		return
	case errors.Is(err, hyperhet.ErrTooManyPipelines):
		writeRetry(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, hyperhet.ErrFlowEngineClosed), errors.Is(err, hyperhet.ErrSchedulerClosed):
		writeRetry(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.logger.Info("pipeline submitted", "id", p.ID(), "stages", len(spec.Stages), "name", spec.Name)
	writeJSON(w, http.StatusAccepted, p.Status())
}

// maxPipelinesListing caps GET /pipelines responses; pass ?limit= for
// less.
const maxPipelinesListing = 200

// handlePipelines lists the pipelines the engine knows — running and
// retained finished — oldest first, optionally filtered by ?state= and
// capped by ?limit=.
func (s *server) handlePipelines(w http.ResponseWriter, r *http.Request) {
	writeListing(w, r, "pipelines", maxPipelinesListing, s.flow.Pipelines(),
		[]string{"running", "completed", "failed", "cancelled"},
		func(p *hyperhet.FlowPipeline) (hyperhet.PipelineStatus, string) {
			st := p.Status()
			return st, string(st.State)
		})
}

func (s *server) handlePipeline(w http.ResponseWriter, r *http.Request) {
	p, err := s.flow.Pipeline(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, p.Status())
}

// rebuildPipeline re-parses a journaled pipeline document, leniently like
// rebuildJob.
func (s *server) rebuildPipeline(jp *hyperhet.JournalPipeline) (hyperhet.PipelineSpec, error) {
	var req pipelineRequest
	if err := json.Unmarshal(jp.Request, &req); err != nil {
		return hyperhet.PipelineSpec{}, fmt.Errorf("unreadable pipeline request: %w", err)
	}
	spec, err := parsePipeline(&req)
	spec.JournalPayload = jp.Request
	return spec, err
}
