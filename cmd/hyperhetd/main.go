// Command hyperhetd serves the analysis-job scheduler over HTTP: clients
// submit simulated hyperspectral analysis runs, poll their status and read
// aggregate scheduler counters.
//
// Usage:
//
//	hyperhetd [-addr :8080] [-workers N] [-queue N] [-cache N]
//	          [-retain N] [-timeout D] [-journal DIR] [-drain-timeout D]
//
// Endpoints (JSON unless noted):
//
//	POST /submit           submit a job; 202 with {"id": ...} on admission,
//	                       429 when the bounded queue is full, 503 while
//	                       draining; both with Retry-After: 1
//	GET  /jobs             list jobs; ?state= filters, ?limit= caps
//	GET  /jobs/{id}        job status, including result summary when done
//	GET  /jobs/{id}/trace  Chrome trace-event JSON of a traced run (submit
//	                       with "trace": true); load in Perfetto
//	POST /jobs/{id}/cancel abort a queued or running job
//	POST /pipelines        submit an analysis pipeline (one scene stage,
//	                       its analyze stages, an optional synthesize
//	                       stage); 202 with the initial status, 400 on
//	                       any other shape, 429 at the active-pipeline
//	                       cap, 503 while draining; both with Retry-After: 1
//	GET  /pipelines        list pipelines; ?state= filters, ?limit= caps
//	GET  /pipelines/{id}   pipeline status: per-stage states, cache hits,
//	                       synthesis results when done
//	GET  /stats            scheduler counters, journal replay health and
//	                       server uptime
//	GET  /metrics          Prometheus text exposition of every instrument
//	GET  /debug/pprof/*    Go runtime profiles (only with -pprof)
//	GET  /healthz          liveness probe
//	GET  /readyz           readiness probe; 503 while draining
//
// A submission names an algorithm, a platform and a scene; the server
// generates (and caches) synthetic scenes when a worker first needs
// their voxels, so a job request is a small JSON document, not a cube
// upload, and one answered from the result cache builds no scene at all:
//
//	curl -s localhost:8080/submit -d '{
//	  "algorithm": "ATDCA", "variant": "Hetero", "network": "fully-het",
//	  "priority": "interactive", "timeout_ms": 60000,
//	  "scene": {"lines": 64, "samples": 32, "bands": 32, "seed": 7}
//	}'
//
// An optional "faults" block injects a deterministic failure plan —
// explicit rank crashes, link slowdowns and compute degradations, or a
// seeded random plan — plus the job's attempt budget and a recovery
// switch that reruns on the survivors when a worker dies; the job's
// status then carries its full attempt history:
//
//	"faults": {"crashes": [{"rank": 2, "at": 0.5}], "max_attempts": 3}
//
// A pipeline composes those building blocks into one submission: the
// scene stage generates (or fetches) a cube, analyze stages fan
// algorithm runs out over it through the scheduler (memoized in its
// result cache), and the synthesize stage scores every report against
// the scene's ground truth:
//
//	curl -s localhost:8080/pipelines -d '{
//	  "stages": [
//	    {"name": "scene", "kind": "scene", "scene": {"seed": 7}},
//	    {"name": "atdca", "kind": "analyze", "after": ["scene"],
//	     "job": {"algorithm": "ATDCA"}},
//	    {"name": "report", "kind": "synthesize", "after": ["atdca"]}
//	  ]
//	}'
//
// With -journal DIR the server is durable: every job and pipeline
// lifecycle edge is appended to an fsync'd write-ahead log, and a
// restarted server replays it — finished work comes back as queryable
// history (completed results re-seed the cache), unfinished jobs are
// resubmitted under their original IDs and, when checkpointed
// ("checkpoint": true, or any fault job with a retry budget or
// recovery), resume from their last completed round; unfinished
// pipelines resume with their journal-recorded completed stages
// restored, re-running only the rest. SIGTERM drains gracefully:
// submissions get 503, running work stops without terminal journal
// records, and the next boot resumes it.
//
// The bounded queue is the one admission path: a full queue is a 429, a
// queued job whose deadline passes settles cancelled without running,
// and interactive jobs dispatch before batch ones. A job whose fault
// plan kills ranks is always run: the same plan fails the same way every
// time, and that is what it is for.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	hyperhet "repro"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		workers = flag.Int("workers", 4, "size of the simulation worker pool")
		queue   = flag.Int("queue", 64, "submission queue depth (backpressure bound)")
		cache   = flag.Int("cache", 128, "result cache entries (negative disables)")
		retain  = flag.Int("retain", 1024, "finished jobs kept queryable by id")
		timeout = flag.Duration("timeout", 0, "default per-job deadline (0 = none)")
		pprofOn = flag.Bool("pprof", false, "expose Go runtime profiles at /debug/pprof/")
		journal = flag.String("journal", "", "job-journal directory; enables durability and crash/restart resume")
		drainTO = flag.Duration("drain-timeout", 10*time.Second, "graceful-drain deadline on SIGTERM")
		kernelW = flag.Int("kernel-workers", 0, "host goroutine budget for data-parallel kernels, shared across jobs (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "hyperhetd: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	if *workers <= 0 || *queue <= 0 || *retain <= 0 {
		fmt.Fprintln(os.Stderr, "hyperhetd: -workers, -queue and -retain must be positive")
		os.Exit(2)
	}
	if *timeout < 0 || *drainTO < 0 {
		fmt.Fprintln(os.Stderr, "hyperhetd: -timeout and -drain-timeout must not be negative")
		os.Exit(2)
	}
	if *kernelW < 0 {
		fmt.Fprintln(os.Stderr, "hyperhetd: -kernel-workers must not be negative")
		os.Exit(2)
	}

	cfg := hyperhet.SchedulerConfig{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cache,
		RetainJobs:     *retain,
		DefaultTimeout: *timeout,
		KernelWorkers:  *kernelW,
	}
	srv, err := newServer(cfg, *journal)
	if err != nil {
		log.Fatalf("hyperhetd: %v", err)
	}
	srv.enablePprof = *pprofOn
	defer srv.close()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.routes()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		// Drain before closing the listener: in-flight and late submissions
		// see 503 while running jobs checkpoint and step aside, then the
		// HTTP server itself shuts down.
		srv.drain(*drainTO)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
	}()

	log.Printf("hyperhetd listening on %s (%d workers, queue %d)", *addr, *workers, *queue)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("hyperhetd: %v", err)
	}
}

// Server-side scene bounds: a submission is a small JSON document that
// makes the server allocate lines*samples*bands float32 voxels (when a
// worker first reads them), so the decoder must refuse sizes that would
// let one request exhaust memory.
// 64M voxels is 256 MB — comfortably above the paper's reduced scenes,
// far below a parsed-from-JSON denial of service.
const (
	maxSceneDim    = 1 << 16
	maxSceneVoxels = 64 << 20
)

// server wires the scheduler and the pipeline engine to the HTTP API.
type server struct {
	sched       *hyperhet.Scheduler
	flow        *hyperhet.FlowEngine
	journal     *hyperhet.SchedJournal // nil without -journal
	reg         *hyperhet.TelemetryRegistry
	logger      *slog.Logger
	start       time.Time
	enablePprof bool
	draining    atomic.Bool

	// replayStats records what the boot-time journal replay read and
	// dropped; nil without -journal. Surfaced in /stats.
	replayStats *hyperhet.SchedReplayStats

	// scenes hands out scene handles; see sceneCache.
	scenes *sceneCache
}

// newServer builds the server. A non-empty journalDir makes it durable:
// existing journal records are replayed into the scheduler before the
// first request is served, then the journal is reopened for appending.
func newServer(cfg hyperhet.SchedulerConfig, journalDir string) (*server, error) {
	reg := hyperhet.NewTelemetryRegistry()
	cfg.Registry = reg
	s := &server{
		reg: reg,
		logger: slog.New(hyperhet.NewCountingLogHandler(reg,
			slog.NewTextHandler(os.Stderr, nil))),
		start:  time.Now(),
		scenes: newSceneCache(sceneCacheBytes, maxSceneDigests),
	}
	s.scenes.register(reg)
	var recovered *hyperhet.SchedJournalState
	if journalDir != "" {
		var err error
		recovered, err = hyperhet.ReplaySchedJournalState(journalDir)
		if err != nil {
			return nil, fmt.Errorf("replaying journal: %w", err)
		}
		s.journal, err = hyperhet.OpenSchedJournal(journalDir)
		if err != nil {
			return nil, fmt.Errorf("opening journal: %w", err)
		}
		cfg.Journal = s.journal
	}
	s.sched = hyperhet.NewScheduler(cfg)
	var err error
	s.flow, err = hyperhet.NewFlowEngine(hyperhet.FlowConfig{
		Scheduler: s.sched,
		Scenes:    s.scenes.provide,
		Registry:  reg,
	})
	if err != nil {
		s.sched.Close()
		return nil, err
	}
	if recovered != nil {
		s.replayStats = &recovered.Stats
		s.recoverJournal(recovered)
	}
	return s, nil
}

// recoverJournal reinstalls the replayed journal through the engine's one
// recovery path: finished jobs and pipelines as queryable history,
// unfinished ones resumed under their original IDs. No scene is generated
// here — resumed jobs carry the lazy handle, and a cacheable one takes its
// cube digest from its journaled cache key — so boot time does not scale
// with the scenes in the journal. A story that cannot be brought back is
// logged and skipped: recovery must never prevent the server from
// starting.
func (s *server) recoverJournal(state *hyperhet.SchedJournalState) {
	rec := s.flow.Recover(state, s.rebuildJob, s.rebuildPipeline)
	for _, l := range rec.Lost {
		s.logger.Warn("journal replay: not recovered", "id", l.ID, "error", l.Err)
	}
	s.logger.Info("journal replay: recovered", "stories", len(state.Jobs)+len(state.Pipelines),
		"resumed_jobs", len(rec.Jobs), "resumed_pipelines", len(rec.Pipelines), "lost", len(rec.Lost))
}

// rebuildJob re-parses a journaled submit document. The decode is lenient,
// unlike POST /submit's, so journals written by older builds still load.
func (s *server) rebuildJob(jj *hyperhet.JournalJob) (hyperhet.JobSpec, error) {
	var req submitRequest
	if err := json.Unmarshal(jj.Request, &req); err != nil {
		return hyperhet.JobSpec{}, fmt.Errorf("unreadable request: %w", err)
	}
	spec, _, err := s.jobSpec(&req, jj.Request)
	return spec, err
}

// drain shuts the server down gracefully ahead of process exit:
// submissions are rejected, active pipelines and running jobs stop
// WITHOUT terminal journal records (the next boot resumes them), and the
// journal is closed once everything settles or the deadline passes. The
// engine drains before the scheduler: cancelling pipelines releases
// their stage jobs, so the scheduler's drain has nothing phantom to wait
// on.
func (s *server) drain(timeout time.Duration) {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.flow.Drain()
		s.sched.Drain()
		close(done)
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-done:
		s.logger.Info("drain complete")
	case <-timer.C:
		s.logger.Warn("drain deadline passed; exiting anyway", "timeout", timeout)
	}
	s.journal.Close()
}

func (s *server) close() {
	s.flow.Close()
	s.sched.Close()
	s.journal.Close()
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /submit", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleJobs)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("POST /pipelines", s.handlePipelineSubmit)
	mux.HandleFunc("GET /pipelines", s.handlePipelines)
	mux.HandleFunc("GET /pipelines/{id}", s.handlePipeline)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	// Readiness is distinct from liveness: a draining server is still
	// alive (health checks pass, status queries answer) but must be
	// rotated out of load balancing before it exits.
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	if s.enablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// submitRequest is the body of POST /submit.
type submitRequest struct {
	Algorithm string  `json:"algorithm"`
	Variant   string  `json:"variant"`    // hetero (default) or homo
	Mode      string  `json:"mode"`       // run (default) or sequential; adaptive = run of ATDCA/Adaptive
	Network   string  `json:"network"`    // fully-het, fully-homo, part-het, part-homo, thunderhead
	CPUs      int     `json:"cpus"`       // thunderhead node count
	CycleTime float64 `json:"cycle_time"` // sequential-mode processor speed
	Priority  string  `json:"priority"`   // interactive or batch (default)
	TimeoutMS int64   `json:"timeout_ms"`
	Targets   int     `json:"targets"`
	Classes   int     `json:"classes"`
	Scaled    bool    `json:"scaled"` // charge full-scene work via ScaledParams
	Trace     bool    `json:"trace"`  // record the run's virtual-time events for /jobs/{id}/trace
	Label     string  `json:"label"`
	NoCache   bool    `json:"no_cache"`
	// Checkpoint enables round-boundary checkpointing: retries (and,
	// with -journal, post-restart re-runs) resume from the last completed
	// round instead of round zero. Implied for fault jobs that can retry
	// or recover. Checkpointed jobs bypass the result cache.
	Checkpoint bool `json:"checkpoint"`
	// Balance schedules the job's parallel phases demand-driven: chunks
	// granted on request, sized by an online per-rank throughput
	// estimate. Outputs are identical to the static schedule; timings and
	// the result's balance accounting change.
	Balance bool          `json:"balance"`
	Scene   sceneRequest  `json:"scene"`
	Faults  *faultRequest `json:"faults"`
}

// faultRequest injects a deterministic failure plan into the run: either
// explicit events or a seeded random plan, plus the job's attempt budget
// and an optional recovery switch. Fault jobs bypass the result cache —
// chaos runs exist to exercise the failure path.
type faultRequest struct {
	Crashes       []hyperhet.FaultCrash    `json:"crashes"`
	LinkSlowdowns []hyperhet.FaultLinkSlow `json:"link_slowdowns"`
	Degradations  []hyperhet.FaultDegrade  `json:"degradations"`
	Seed          int64                    `json:"seed"`         // nonzero: generate a random plan instead
	MaxAttempts   int                      `json:"max_attempts"` // attempt budget (0 = 1, or 3 with recovery)
	Recovery      bool                     `json:"recovery"`     // rerun on the survivors when a worker dies
}

// sceneRequest selects the synthetic scene; zero values take the reduced
// WTC defaults.
type sceneRequest struct {
	Lines   int     `json:"lines"`
	Samples int     `json:"samples"`
	Bands   int     `json:"bands"`
	Seed    int64   `json:"seed"`
	SNRdB   float64 `json:"snr_db"`
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		// Draining never un-drains: the Retry-After points clients at the
		// window in which a replacement instance should be serving.
		writeRetry(w, http.StatusServiceUnavailable, errors.New("server draining"))
		return
	}
	// Read the raw document before decoding: the verbatim body is what the
	// journal records, so a restarted server re-parses exactly what the
	// client sent.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	var req submitRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	spec, sceneCfg, err := s.jobSpec(&req, body)
	if err != nil {
		s.logger.Warn("submit rejected", "error", err)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// A cacheable job owes the scheduler its cube's digest up front, which
	// costs a scene generation only on first sight of the (validated,
	// size-capped) config.
	if spec.Cacheable() {
		if spec.CubeDigest, err = s.scenes.digest(r.Context(), sceneCfg); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
	}
	// Jobs outlive the submit request: derive from Background, not
	// r.Context(), which dies as soon as this handler returns.
	job, err := s.sched.Submit(context.Background(), spec)
	switch {
	case errors.Is(err, hyperhet.ErrQueueFull):
		writeRetry(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, hyperhet.ErrSchedulerClosed):
		writeRetry(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.logger.Info("job submitted", "id", job.ID(), "mode", spec.Mode, "algorithm", spec.Algorithm, "priority", spec.Priority.String())
	writeJSON(w, http.StatusAccepted, job.Status())
}

// jobSpec resolves a decoded submit document into the spec the scheduler
// runs, for POST /submit and journal recovery alike: parseSubmit, then the
// scene as a lazy handle (a worker builds the cube only once the result
// cache has missed), the scaled work charge and, on a durable server, the
// verbatim document for the journal.
func (s *server) jobSpec(req *submitRequest, doc []byte) (hyperhet.JobSpec, hyperhet.SceneConfig, error) {
	spec, sceneCfg, err := parseSubmit(req)
	if err != nil {
		return spec, sceneCfg, err
	}
	spec.Materialize = s.scenes.cube(sceneCfg)
	if req.Scaled {
		spec.Params = hyperhet.ScaledParams(spec.Params, sceneCfg)
	}
	if s.journal != nil {
		spec.JournalPayload = doc
	}
	return spec, sceneCfg, nil
}

// parseSubmit resolves a submit request into a scheduler JobSpec plus the
// configuration of the scene it names. It is pure — no allocation beyond
// the spec, no scene generation — so the fuzzer drives it directly with
// arbitrary decoded requests; every malformed field must surface as an
// error here, never as a panic or an allocation downstream.
func parseSubmit(req *submitRequest) (hyperhet.JobSpec, hyperhet.SceneConfig, error) {
	var spec hyperhet.JobSpec
	sceneCfg, err := parseScene(req.Scene)
	if err != nil {
		return spec, sceneCfg, err
	}

	// "adaptive" is not a scheduler mode but the Adaptive variant of a run,
	// which is ATDCA whatever the request's algorithm says.
	spec.Mode = hyperhet.JobMode(strings.ToLower(req.Mode))
	adaptive := spec.Mode == "adaptive"
	if spec.Mode == "" || adaptive {
		spec.Mode = hyperhet.ModeRun
	}
	if !adaptive {
		if spec.Algorithm, err = hyperhet.ParseAlgorithm(req.Algorithm); err != nil {
			return spec, sceneCfg, err
		}
	}
	if spec.Variant, err = hyperhet.ParseVariant(req.Variant); err != nil {
		return spec, sceneCfg, err
	}
	if adaptive {
		spec.Algorithm, spec.Variant = hyperhet.ATDCA, hyperhet.Adaptive
	}
	if spec.Mode == hyperhet.ModeSequential {
		if req.CycleTime < 0 {
			return spec, sceneCfg, fmt.Errorf("invalid cycle_time %v", req.CycleTime)
		}
		spec.CycleTime = req.CycleTime
	} else {
		net, err := resolveNetwork(req.Network, req.CPUs)
		if err != nil {
			return spec, sceneCfg, err
		}
		spec.Network = net
	}

	pri, err := hyperhet.ParseJobPriority(strings.ToLower(req.Priority))
	if err != nil {
		return spec, sceneCfg, err
	}
	spec.Priority = pri
	if req.TimeoutMS < 0 {
		return spec, sceneCfg, fmt.Errorf("invalid timeout_ms %d", req.TimeoutMS)
	}
	spec.Timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	spec.Label = req.Label
	spec.NoCache = req.NoCache
	spec.Checkpoint = req.Checkpoint
	spec.Balance = req.Balance

	spec.Params = hyperhet.DefaultParams()
	spec.Params.Trace = req.Trace
	if req.Targets != 0 {
		if req.Targets < 0 {
			return spec, sceneCfg, fmt.Errorf("invalid targets %d", req.Targets)
		}
		spec.Params.Targets = req.Targets
	}
	if req.Classes != 0 {
		if req.Classes < 0 {
			return spec, sceneCfg, fmt.Errorf("invalid classes %d", req.Classes)
		}
		spec.Params.PCT.Classes = req.Classes
		spec.Params.Morph.Classes = req.Classes
	}
	if req.Faults != nil {
		plan := &hyperhet.FaultPlan{
			Crashes:   req.Faults.Crashes,
			LinkSlows: req.Faults.LinkSlowdowns,
			Degrades:  req.Faults.Degradations,
		}
		if req.Faults.Seed != 0 {
			if !plan.Empty() {
				return spec, sceneCfg, fmt.Errorf("faults: give explicit events or a seed, not both")
			}
			if spec.Network == nil {
				return spec, sceneCfg, fmt.Errorf("faults: seeded plans need a networked mode")
			}
			var err error
			plan, err = hyperhet.RandomFaultPlan(req.Faults.Seed, hyperhet.RandomFaultConfig{Ranks: spec.Network.Size()})
			if err != nil {
				return spec, sceneCfg, err
			}
		}
		if req.Faults.MaxAttempts < 0 {
			return spec, sceneCfg, fmt.Errorf("faults: invalid max_attempts %d", req.Faults.MaxAttempts)
		}
		spec.Params.Faults = plan
		spec.Recovery = req.Faults.Recovery
		spec.MaxAttempts = req.Faults.MaxAttempts
		// A fault job that may re-run — on the same network or, with
		// recovery, on the survivors — checkpoints by default, so the
		// rerun resumes instead of recomputing (fault jobs never cache
		// anyway).
		if req.Faults.MaxAttempts > 1 || req.Faults.Recovery {
			spec.Checkpoint = true
		}
	}
	return spec, sceneCfg, nil
}

// parseScene resolves the scene request against the reduced-WTC defaults
// and enforces the server-side size cap and the generator's own minimums
// before anything is allocated: generation is deferred to a worker, so
// every refusal it could make must be a 400 here. The per-dimension bound
// keeps the voxel product far from int64 overflow even on hostile inputs.
func parseScene(req sceneRequest) (hyperhet.SceneConfig, error) {
	cfg := hyperhet.DefaultSceneConfig()
	if req.Lines != 0 {
		cfg.Lines = req.Lines
	}
	if req.Samples != 0 {
		cfg.Samples = req.Samples
	}
	if req.Bands != 0 {
		cfg.Bands = req.Bands
	}
	if req.Seed != 0 {
		cfg.Seed = req.Seed
	}
	if req.SNRdB != 0 {
		cfg.SNRdB = req.SNRdB
	}
	for _, d := range []struct {
		name string
		v    int
	}{{"lines", cfg.Lines}, {"samples", cfg.Samples}, {"bands", cfg.Bands}} {
		if d.v <= 0 || d.v > maxSceneDim {
			return cfg, fmt.Errorf("scene: %s %d out of range [1, %d]", d.name, d.v, maxSceneDim)
		}
	}
	if voxels := int64(cfg.Lines) * int64(cfg.Samples) * int64(cfg.Bands); voxels > maxSceneVoxels {
		return cfg, fmt.Errorf("scene: %d voxels exceeds the server cap of %d", voxels, int64(maxSceneVoxels))
	}
	return cfg, cfg.Validate()
}

// resolveNetwork applies the server's defaults — fully-het, and 16
// Thunderhead nodes — to a request's network name.
func resolveNetwork(name string, cpus int) (*hyperhet.Network, error) {
	if name == "" {
		return hyperhet.FullyHeterogeneous(), nil
	}
	if cpus == 0 {
		cpus = 16
	}
	return hyperhet.NetworkByName(name, cpus)
}

// jobResponse decorates the scheduler's status with a result summary.
type jobResponse struct {
	hyperhet.JobStatus
	Result *resultSummary `json:"result,omitempty"`
}

// resultSummary is the compact outcome of a completed run.
type resultSummary struct {
	Network        string  `json:"network"`
	Procs          int     `json:"procs"`
	VirtualSeconds float64 `json:"virtual_seconds"`
	ComSeconds     float64 `json:"com_seconds"`
	SeqSeconds     float64 `json:"seq_seconds"`
	ParSeconds     float64 `json:"par_seconds"`
	ImbalanceDAll  float64 `json:"imbalance_d_all"`
	Targets        int     `json:"targets,omitempty"`
	Classes        int     `json:"classes,omitempty"`
	// Rerun bookkeeping: the ranks excluded before the successful attempt
	// and the virtual time the failed attempts burned (the count of
	// attempts is the job status's).
	FailedRanks      []int   `json:"failed_ranks,omitempty"`
	RecoveryOverhead float64 `json:"recovery_overhead_seconds,omitempty"`
	// Checkpoint bookkeeping of a checkpointed run: the round the
	// successful attempt resumed from (0 = from scratch), the snapshots
	// written, and the virtual seconds spent on checkpoint I/O.
	ResumedFromRound   int     `json:"resumed_from_round,omitempty"`
	CheckpointSaves    int     `json:"checkpoint_saves,omitempty"`
	CheckpointOverhead float64 `json:"checkpoint_overhead_seconds,omitempty"`
	// Demand-driven scheduling bookkeeping of a balanced run: chunks
	// granted, grants that crossed static share boundaries (and the lines
	// they moved), and the estimator's mean relative prediction error.
	Balanced        bool    `json:"balanced,omitempty"`
	BalanceChunks   int     `json:"balance_chunks,omitempty"`
	StealEvents     int     `json:"steal_events,omitempty"`
	ReassignedLines int     `json:"reassigned_lines,omitempty"`
	EstimatorDrift  float64 `json:"estimator_drift,omitempty"`
}

// maxJobsListing caps GET /jobs responses; pass ?limit= for less.
const maxJobsListing = 500

// handleJobs lists the jobs the scheduler knows — queued, running and
// retained finished — in deterministic order (ascending submit time,
// ties by ID), optionally filtered by ?state= and capped by ?limit=.
func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeListing(w, r, "jobs", maxJobsListing, s.sched.Jobs(),
		[]string{"queued", "running", "completed", "failed", "cancelled"},
		func(j *hyperhet.Job) (hyperhet.JobStatus, string) {
			st := j.Status()
			return st, string(st.State)
		})
}

// writeListing answers a listing endpoint from items already in listing
// order: ?state= (validated against states) filters, ?limit= (capped at
// max) truncates. A listing cut short by the cap carries "truncated":
// true so clients can tell a short list from a complete one.
func writeListing[T, S any](w http.ResponseWriter, r *http.Request, key string, max int, items []T, states []string, status func(T) (S, string)) {
	filter := r.URL.Query().Get("state")
	if filter != "" && !slices.Contains(states, filter) {
		last := len(states) - 1
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown state %q (want %s or %s)",
			filter, strings.Join(states[:last], ", "), states[last]))
		return
	}
	limit, ok := parseLimit(w, r, max)
	if !ok {
		return
	}
	statuses := []S{}
	truncated := false
	for _, item := range items {
		st, state := status(item)
		if filter != "" && state != filter {
			continue
		}
		if len(statuses) >= limit {
			truncated = true
			break
		}
		statuses = append(statuses, st)
	}
	body := map[string]any{key: statuses, "count": len(statuses)}
	if truncated {
		body["truncated"] = true
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.sched.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	resp := jobResponse{JobStatus: job.Status()}
	if rep := job.Report(); rep != nil {
		sum := &resultSummary{
			Network:        rep.Network,
			Procs:          rep.Procs,
			VirtualSeconds: rep.WallTime,
			ComSeconds:     rep.Com,
			SeqSeconds:     rep.Seq,
			ParSeconds:     rep.Par,
			ImbalanceDAll:  rep.DAll,
		}
		if rep.Detection != nil {
			sum.Targets = len(rep.Detection.Targets)
		}
		if rep.Classification != nil {
			sum.Classes = len(rep.Classification.Classes)
		}
		if rep.Attempts > 1 {
			sum.FailedRanks = rep.FailedRanks
			sum.RecoveryOverhead = rep.RecoveryOverhead
		}
		if rep.CheckpointSaves > 0 || rep.ResumedFromRound > 0 {
			sum.ResumedFromRound = rep.ResumedFromRound
			sum.CheckpointSaves = rep.CheckpointSaves
			sum.CheckpointOverhead = rep.CheckpointOverhead
		}
		if rep.Balanced {
			sum.Balanced = true
			sum.BalanceChunks = rep.BalanceChunks
			sum.StealEvents = rep.StealEvents
			sum.ReassignedLines = rep.ReassignedLines
			sum.EstimatorDrift = rep.EstimatorDrift
		}
		resp.Result = sum
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleTrace exports a traced job's virtual-time events as Chrome
// trace-event JSON: load the response in Perfetto (ui.perfetto.dev) or
// chrome://tracing for a per-rank flame view of the simulated run.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	job, err := s.sched.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	rep := job.Report()
	if rep == nil {
		writeError(w, http.StatusConflict,
			fmt.Errorf("job %s has no result (state %s)", job.ID(), job.State()))
		return
	}
	if len(rep.TraceEvents) == 0 {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("job %s was not traced; submit with \"trace\": true", job.ID()))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := hyperhet.WriteChromeTrace(w, rep.TraceEvents); err != nil {
		s.logger.Error("trace export failed", "id", job.ID(), "error", err)
	}
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.sched.Cancel(id); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": "cancel requested"})
}

// parseLimit reads a validated positive ?limit= capped at max, writing
// the 400 itself on a bad value. The second return is false after an
// error response.
func parseLimit(w http.ResponseWriter, r *http.Request, max int) (int, bool) {
	limit := max
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("invalid limit %q (want a positive integer)", v))
			return 0, false
		}
		if n < limit {
			limit = n
		}
	}
	return limit, true
}

// statsResponse is the body of GET /stats.
type statsResponse struct {
	hyperhet.SchedulerStats
	UptimeSeconds float64 `json:"uptime_seconds"`
	// SceneCache snapshots the scene cache: resident scenes and bytes, the
	// digest memo, and the hit/miss/generation counters /metrics exports.
	SceneCache sceneCacheStats `json:"scene_cache"`
	// JournalReplay reports what the boot-time journal replay read and
	// dropped (records folded, torn tails truncated, unknown schema
	// versions and unreadable frames skipped); absent without -journal.
	JournalReplay *hyperhet.SchedReplayStats `json:"journal_replay,omitempty"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		SchedulerStats: s.sched.Stats(),
		UptimeSeconds:  time.Since(s.start).Seconds(),
		SceneCache:     s.scenes.stats(),
		JournalReplay:  s.replayStats,
	}
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeRetry refuses a request the client should send again in a second:
// a full queue or pipeline cap (429), a draining or closed server (503).
func writeRetry(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Retry-After", "1")
	writeError(w, status, err)
}
