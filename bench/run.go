package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/sched"
)

// harness holds what every pass of every workload shares: the checkout, the
// built server and the reference results.
type harness struct {
	root     string
	outDir   string // bench/out: server binary, logs, journals, traces
	bin      string
	buildS   float64
	expected map[string]expectedResult // nil while recording

	// setupRuns is how many times the e2e pass sets the server up; setup_s is
	// their median. Tests use 1.
	setupRuns int
}

func newHarness() (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	h := &harness{root: root, outDir: filepath.Join(root, "bench", "out"), setupRuns: 3}
	if err := os.MkdirAll(h.outDir, 0o755); err != nil {
		return nil, err
	}
	if h.bin, h.buildS, err = buildServer(root, h.outDir); err != nil {
		return nil, err
	}
	return h, nil
}

// passResult is one pass of one workload: the contract's result line plus
// what the human-readable summary adds.
type passResult struct {
	Attempted int
	Failed    int
	FirstFail string // first failing template and how it differed
	Metrics   map[string]float64
}

// setup starts a server for w and warms it: every distinct template is sent
// once, which materialises the scene pool, primes the result cache and
// discards the first-use cost of every request shape. It returns the server
// the seconds from exec to warm, and the warm-up ops (which -record keeps).
func (h *harness) setup(w *workload, truncateLog bool) (*server, float64, []opResult, error) {
	logPath := filepath.Join(h.outDir, w.Name+".server.log")
	if truncateLog {
		if err := os.WriteFile(logPath, nil, 0o644); err != nil {
			return nil, 0, nil, err
		}
	}
	journalDir := ""
	if w.Journal {
		var err error
		if journalDir, err = os.MkdirTemp(h.outDir, w.Name+"-journal-"); err != nil {
			return nil, 0, nil, err
		}
	}
	s, err := startServer(h.bin, logPath, journalDir)
	if err != nil {
		return nil, 0, nil, err
	}
	once := *w
	once.Cycle = repeatEach(0, len(w.Templates), 1)
	warm, err := runClosed(s, &once, 0, h.expected, runOpts{MaxOps: len(once.Cycle)})
	if err == nil {
		if _, fail := failures(w, warm.Ops); fail != "" {
			err = errors.New("warm-up op failed: " + fail)
		}
	}
	if err != nil {
		s.kill()
		os.RemoveAll(journalDir)
		return nil, 0, nil, err
	}
	return s, time.Since(s.started).Seconds(), warm.Ops, nil
}

// failures counts the failed ops and describes the first.
func failures(w *workload, ops []opResult) (int, string) {
	n, first := 0, ""
	for _, op := range ops {
		if op.Fail != "" {
			if n == 0 {
				first = w.Templates[op.Template].Key + ": " + op.Fail
			}
			n++
		}
	}
	return n, first
}

// load runs one measured phase of w against s.
func load(s *server, w *workload, seed int64, expected map[string]expectedResult, o runOpts) (phase, error) {
	if w.OpenRate > 0 {
		return runOpen(s, w, seed, expected, o)
	}
	return runClosed(s, w, seed, expected, o)
}

func latencies(ops []opResult) []float64 {
	out := make([]float64, 0, len(ops))
	for _, op := range ops {
		if op.Fail == "" {
			out = append(out, op.LatencyMS)
		}
	}
	return out
}

// checkOpenLoop invalidates an open-loop run whose generator could not keep
// its schedule or whose backlog was still growing when it ended: its
// latencies would then describe the harness or an overloaded server, not the
// rate it names. The lateness limit is on p90, not p99: on the two-vCPU
// reference box host pauses of 20-60 ms delay about 1% of arrivals in some
// runs through no fault of the generator (p99 is reported as a metric).
// Runs cut short by MaxOps are tests and are not judged on time.
func checkOpenLoop(w *workload, ph phase, o runOpts) error {
	if w.OpenRate == 0 || o.MaxOps > 0 {
		return nil
	}
	late := make([]float64, len(ph.Ops))
	for i, op := range ph.Ops {
		late[i] = op.LateMS
	}
	if p90 := percentile(late, 0.90); p90 > 5 {
		return fmt.Errorf("open-loop generator ran late: p90 lateness %.2f ms > 5 ms", p90)
	}
	if backlogGrowing(ph.InFlight) {
		return errors.New("open-loop backlog still growing over the last third of the run")
	}
	return nil
}

// e2e is the untraced pass: set up (several times, for a median), load for
// o.Seconds, shut down cleanly, report the end-to-end metrics.
func (h *harness) e2e(w *workload, seed int64, o runOpts) (passResult, error) {
	var (
		s      *server
		setups []float64
		err    error
	)
	for k := 0; k < h.setupRuns; k++ {
		if s != nil {
			if err := h.stop(s); err != nil {
				return passResult{}, err
			}
		}
		var d float64
		if s, d, _, err = h.setup(w, k == 0); err != nil {
			return passResult{}, err
		}
		setups = append(setups, d)
	}
	o.Traced = false
	ph, err := load(s, w, seed, h.expected, o)
	if err != nil {
		s.kill()
		return passResult{}, err
	}
	if _, err := s.settledStats(); err != nil {
		s.kill()
		return passResult{}, err
	}
	if err := h.stop(s); err != nil {
		return passResult{}, err
	}
	if err := checkOpenLoop(w, ph, o); err != nil {
		return passResult{}, err
	}
	failed, first := failures(w, ph.Ops)
	res := passResult{Attempted: len(ph.Ops), Failed: failed, FirstFail: first}
	res.Metrics = bestQuartile(w, ph)
	res.Metrics["setup_s"] = median(setups)
	return res, nil
}

// bestQuartile computes the load-dependent end-to-end metrics per cycle —
// throughput, latency percentiles, server CPU per op — and returns the
// better quartile over the run's cycles. Every cycle is the same work, and
// what disturbs a cycle on a shared machine (a stolen vCPU, a late timer)
// only ever slows it: on the reference box a disturbance often covers more
// than half of a run, which moves the median of the cycles but rarely
// the quartile. Only correct ops count. Open-loop throughput is the whole
// run's goodput, because a cycle's arrivals there are a random draw.
func bestQuartile(w *workload, ph phase) map[string]float64 {
	n := len(ph.Marks) - 1
	lat := make([][]float64, n)
	for _, op := range ph.Ops {
		if op.Fail == "" {
			k := op.Index / len(w.Cycle)
			lat[k] = append(lat[k], op.LatencyMS)
		}
	}
	var rate, p50, p90, cpu []float64
	total := 0.0
	for k := 0; k < n; k++ {
		done := float64(len(lat[k]))
		if done == 0 {
			continue
		}
		total += done
		rate = append(rate, done/(ph.Marks[k+1].AtS-ph.Marks[k].AtS))
		p50 = append(p50, percentile(lat[k], 0.50))
		p90 = append(p90, percentile(lat[k], 0.90))
		cpu = append(cpu, (ph.Marks[k+1].CPUS-ph.Marks[k].CPUS)*1e3/done)
	}
	m := map[string]float64{
		"ops_per_s":     percentile(rate, 0.75),
		"op_p50_ms":     percentile(p50, 0.25),
		"op_p90_ms":     percentile(p90, 0.25),
		"cpu_ms_per_op": percentile(cpu, 0.25),
	}
	if w.OpenRate > 0 {
		m["ops_per_s"] = total / ph.WallS
	}
	return m
}

// stop shuts a server down cleanly and removes its journal.
func (h *harness) stop(s *server) error {
	err := s.stop()
	if s.journalDir != "" {
		os.RemoveAll(s.journalDir)
	}
	return err
}

// traced is the per-layer pass: a short untraced phase, then a traced one
// with client spans and /metrics and /stats deltas around it, then the
// in-process layer replay. The durable workload's server is killed with
// SIGKILL at the end and its journal checked against what clients were told.
func (h *harness) traced(w *workload, seed int64, o runOpts) (passResult, error) {
	s, _, _, err := h.setup(w, true)
	if err != nil {
		return passResult{}, err
	}
	abort := func(err error) (passResult, error) {
		s.kill()
		os.RemoveAll(s.journalDir)
		return passResult{}, err
	}
	plain, tracedOpts := o, o
	plain.Seconds, plain.Traced = o.Seconds/4, false
	tracedOpts.Seconds, tracedOpts.Traced = o.Seconds/2, true
	base, err := load(s, w, seed, h.expected, plain)
	if err != nil {
		return abort(err)
	}
	st0, err := s.settledStats()
	if err != nil {
		return abort(err)
	}
	m0, _, err := s.scrape()
	if err != nil {
		return abort(err)
	}
	wal0 := journalSize(s.journalDir)
	ph, err := load(s, w, seed+1, h.expected, tracedOpts)
	if err != nil {
		return abort(err)
	}
	st1, err := s.settledStats()
	if err != nil {
		return abort(err)
	}
	m1, scrapeMS, err := s.scrape()
	if err != nil {
		return abort(err)
	}
	wal1 := journalSize(s.journalDir)
	rss, err := s.peakRSSMB()
	if err != nil {
		return abort(err)
	}
	if err := checkOpenLoop(w, ph, o); err != nil {
		return abort(err)
	}

	failed, first := failures(w, ph.Ops)
	res := passResult{Attempted: len(ph.Ops), Failed: failed, FirstFail: first, Metrics: make(map[string]float64)}
	m := res.Metrics
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	httpMetrics(m, base, ph)
	ops := float64(len(ph.Ops) - failed)
	d := promDelta(m0, m1)
	perOp := func(v float64) float64 {
		if ops == 0 {
			return 0
		}
		return v / ops
	}
	m["client.build_s"] = h.buildS
	m["hyperhetd.boot_ms"] = s.bootMS
	m["hyperhetd.metrics_scrape_ms"] = scrapeMS
	m["hyperhetd.log_records_per_op"] = perOp(d.sum("hyperhet_log_records_total"))
	m["hyperhetd.peak_rss_mb"] = rss
	if jobs := float64(st1.Completed - st0.Completed); jobs > 0 {
		m["sched.cache_hit_ratio"] = float64(st1.CacheHits-st0.CacheHits) / jobs
	}
	m["sched.journal_records_per_op"] = perOp(d.sum("hyperhet_sched_journal_records_total"))
	m["sched.journal_bytes_per_op"] = perOp(float64(wal1 - wal0))
	m["sched.journal_errors"] = d.sum("hyperhet_sched_journal_errors_total")
	m["sched.retries"] = float64(st1.Retries - st0.Retries)
	m["sched.rejected"] = float64(st1.Rejected - st0.Rejected)
	m["mpi.messages_per_op"] = perOp(d.sum("hyperhet_mpi_messages_total", `kind="send"`))
	m["mpi.mbytes_per_op"] = perOp(d.sum("hyperhet_mpi_bytes_total", `direction="sent"`)) / 1e6
	m["mpi.mflops_per_op"] = perOp(d.sum("hyperhet_mpi_flops_total")) / 1e6
	m["par.chunks_per_op"] = perOp(d.sum("hyperhet_kernel_parallel_chunks_total"))

	// End the server: the durable workload by a crash, so that what the
	// journal holds is what a power cut would have left.
	journalDir := s.journalDir
	if w.Journal {
		s.kill()
		lost, err := ackedNotDurable(journalDir, ph.Ops)
		if err != nil {
			os.RemoveAll(journalDir)
			return passResult{}, err
		}
		m["sched.acked_not_durable"] = float64(lost)
	} else if err := s.stop(); err != nil {
		return passResult{}, err
	}
	defer os.RemoveAll(journalDir)

	scratch, err := os.MkdirTemp(h.outDir, w.Name+"-replay-")
	if err != nil {
		return passResult{}, err
	}
	defer os.RemoveAll(scratch)
	layers, err := layerReplay(w, scratch, journalDir)
	if err != nil {
		return passResult{}, err
	}
	for k, v := range layers {
		m[k] = v
	}
	return res, writeTrace(filepath.Join(h.outDir, w.Name+".trace.json"), w, seed, ph)
}

func journalSize(dir string) int64 {
	if dir == "" {
		return 0
	}
	fi, err := os.Stat(sched.JournalPath(dir))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// ackedNotDurable counts the ops a client saw completed whose finished
// record the journal, read back after the crash, does not hold.
func ackedNotDurable(journalDir string, ops []opResult) (int, error) {
	st, err := sched.ReplayJournalState(journalDir)
	if err != nil {
		return 0, fmt.Errorf("replaying the crashed server's journal: %w", err)
	}
	finished := make(map[string]bool)
	if st != nil {
		for _, j := range st.Jobs {
			if j.Finished {
				finished[j.ID] = true
			}
		}
	}
	lost := 0
	for _, op := range ops {
		if op.Fail == "" && !finished[op.ID] {
			lost++
		}
	}
	return lost, nil
}

// httpMetrics fills the H-sourced per-layer metrics from the traced phase
// (and the untraced phase before it, for the tracing overhead).
func httpMetrics(m map[string]float64, base, ph phase) {
	var (
		lat, late, polls, submit, status, overhead []float64
		queue, run, dall, vsec                     []float64
		orch, analyze                              []float64
		com, seq, par, stages, stageHits           float64
	)
	// In issue order, so that sums of floats add up the same way on every
	// run of one seed whichever client took which op.
	ops := append([]opResult(nil), ph.Ops...)
	sort.Slice(ops, func(i, j int) bool { return ops[i].Index < ops[j].Index })
	for _, op := range ops {
		if op.Fail != "" {
			continue
		}
		lat = append(lat, op.LatencyMS)
		late = append(late, op.LateMS)
		polls = append(polls, float64(op.Polls))
		submit = append(submit, op.SubmitMS)
		status = append(status, op.StatusMS)
		vsec = append(vsec, op.VSec)
		if op.Stages > 0 {
			overhead = append(overhead, op.LatencyMS-op.LateMS-op.ServerMS)
			orch = append(orch, op.OrchestrationMS)
			analyze = append(analyze, op.AnalyzeMS...)
			stages, stageHits = stages+float64(op.Stages), stageHits+float64(op.StageHits)
			continue
		}
		overhead = append(overhead, op.LatencyMS-op.LateMS-op.QueueMS-op.RunMS)
		queue = append(queue, op.QueueMS)
		if !op.FromCache {
			run = append(run, op.RunMS)
			dall = append(dall, op.DAll)
			com, seq, par = com+op.Com, seq+op.Seq, par+op.Par
		}
	}
	if samplesBeyond(len(lat), 0.99) >= 10 {
		m["client.op_p99_ms"] = percentile(lat, 0.99)
	}
	m["client.polls_per_op"] = mean(polls)
	m["client.sched_lateness_ms_p99"] = percentile(late, 0.99)
	if p50 := median(latencies(base.Ops)); p50 > 0 {
		m["client.trace_overhead_pct"] = 100 * (median(lat) - p50) / p50
	}
	var self []float64
	for i, st := range selfTimes(ph.Spans) {
		if ph.Spans[i].Parent < 0 {
			self = append(self, float64(st)/1e6)
		}
	}
	m["client.op_self_ms_p50"] = median(self)
	m["hyperhetd.submit_rtt_ms_p50"] = median(submit)
	m["hyperhetd.submit_rtt_ms_p90"] = percentile(submit, 0.9)
	m["hyperhetd.status_rtt_ms_p50"] = median(status)
	m["hyperhetd.overhead_ms_p50"] = median(overhead)
	m["sched.queue_wait_ms_p50"] = median(queue)
	m["sched.queue_wait_ms_p90"] = percentile(queue, 0.9)
	m["sched.run_ms_p50"] = median(run)
	m["sched.run_ms_p90"] = percentile(run, 0.9)
	if total := com + seq + par; total > 0 {
		m["core.com_share"], m["core.seq_share"], m["core.par_share"] = com/total, seq/total, par/total
	}
	m["core.d_all_mean"] = mean(dall)
	m["core.model_vsec_per_op"] = mean(vsec)
	m["flow.orchestration_ms_p50"] = median(orch)
	m["flow.stage_ms_p50.analyze"] = median(analyze)
	if stages > 0 {
		m["flow.stage_cache_hit_ratio"] = stageHits / stages
	}
}

// traceFile is bench/out/<workload>.trace.json: the traced phase's spans
// (times in ns from the phase's start) and one line per op.
type traceFile struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	WallS    float64   `json:"wall_s"`
	Spans    []span    `json:"spans"`
	Ops      []traceOp `json:"ops"`
}

type traceOp struct {
	Template  string  `json:"template"`
	ID        string  `json:"id"`
	LatencyMS float64 `json:"latency_ms"`
	QueueMS   float64 `json:"queue_ms,omitempty"`
	RunMS     float64 `json:"run_ms,omitempty"`
	ServerMS  float64 `json:"server_ms,omitempty"`
	Polls     int     `json:"polls"`
	FromCache bool    `json:"from_cache,omitempty"`
	Fail      string  `json:"fail,omitempty"`
}

func writeTrace(path string, w *workload, seed int64, ph phase) error {
	tf := traceFile{Workload: w.Name, Seed: seed, WallS: ph.WallS, Spans: ph.Spans}
	for _, op := range ph.Ops {
		tf.Ops = append(tf.Ops, traceOp{Template: w.Templates[op.Template].Key, ID: op.ID, LatencyMS: op.LatencyMS,
			QueueMS: op.QueueMS, RunMS: op.RunMS, ServerMS: op.ServerMS, Polls: op.Polls, FromCache: op.FromCache, Fail: op.Fail})
	}
	b, err := json.Marshal(&tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
