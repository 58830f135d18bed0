package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// pollBackoff is the wait before each status poll of an op: 0.25, 0.5, 1,
// 2, 4 ms, then 4 ms for every further poll, each stretched by the op's
// jitter factor.
var pollBackoff = []time.Duration{250 * time.Microsecond, 500 * time.Microsecond,
	time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}

// opTimeout fails an op that has not reached a terminal state.
const opTimeout = 30 * time.Second

// jobDoc is the part of a job status document the benchmark reads.
type jobDoc struct {
	ID        string     `json:"id"`
	State     string     `json:"state"`
	FromCache bool       `json:"from_cache"`
	Error     string     `json:"error"`
	Submitted time.Time  `json:"submitted"`
	Started   time.Time  `json:"started"`
	Finished  time.Time  `json:"finished"`
	Result    *jobResult `json:"result"`
}

type stageDoc struct {
	Name      string      `json:"name"`
	Kind      string      `json:"kind"`
	After     []string    `json:"after"`
	FromCache bool        `json:"from_cache"`
	Started   time.Time   `json:"started"`
	Finished  time.Time   `json:"finished"`
	Synthesis *pipeResult `json:"synthesis"`
}

type pipeDoc struct {
	ID        string     `json:"id"`
	State     string     `json:"state"`
	Error     string     `json:"error"`
	Submitted time.Time  `json:"submitted"`
	Finished  time.Time  `json:"finished"`
	Stages    []stageDoc `json:"stages"`
}

// opResult is what one op leaves behind: the client-observed latency, the
// verdict, and the server's own timestamps from the terminal document.
type opResult struct {
	Index     int // issue order within the phase
	Template  int
	ID        string
	LatencyMS float64 // send (closed loop) or due time (open loop) to terminal response
	LateMS    float64 // open loop: how long after its due time the op was sent
	Fail      string  // "" when the op completed with the expected result
	Polls     int
	SubmitMS  float64 // POST round trip
	StatusMS  float64 // mean GET round trip of this op's polls
	VSec      float64
	FromCache bool
	Job       *jobResult  // the terminal document's result (jobs)
	Pipe      *pipeResult // its synthesis (pipelines)

	// Jobs: server-side queue wait and run time, and the result's split.
	QueueMS, RunMS      float64
	Com, Seq, Par, DAll float64

	// Pipelines: submitted-to-finished on the server, that minus the
	// critical path of stage run times, analyze stage run times, and how
	// many of the analyze stages were served from the result cache.
	ServerMS, OrchestrationMS float64
	AnalyzeMS                 []float64
	StageHits, Stages         int
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// pollJitter is the factor in [0.7, 1.3) by which op number `op` stretches
// its poll waits, a pure function of the seed. Unjittered, every op polls at
// the same offsets and latencies pile up at 1.75, 3.75, 7.75 ms; a
// percentile that sits between two piles then jumps from one to the other on
// the smallest change. Spread over a band, observed latency moves smoothly
// with the time the result was ready.
func pollJitter(seed int64, op int) float64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(op) + 1 // splitmix64
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return 0.7 + 0.6*float64(x>>11)/(1<<53)
}

// caller issues the HTTP requests of ops over one http.Client and, when
// tracing, records their spans. A closed-loop client owns its caller; the
// open loop shares one, so the span slice is locked.
type caller struct {
	base     string
	hc       *http.Client
	expected map[string]expectedResult
	w        *workload
	epoch    time.Time
	seed     int64 // for pollJitter

	traced bool
	mu     sync.Mutex
	spans  []span
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: opTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// addSpan records a finished span and returns its index; -1 when tracing
// is off.
func (c *caller) addSpan(name string, start, end time.Time, parent, op int) int {
	if !c.traced {
		return -1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans = append(c.spans, span{Name: name, StartNS: start.Sub(c.epoch).Nanoseconds(),
		EndNS: end.Sub(c.epoch).Nanoseconds(), Parent: parent, Op: op})
	return len(c.spans) - 1
}

// openSpan reserves the op's root span so children can name it as parent;
// closeSpan fills in its end.
func (c *caller) openSpan(name string, start time.Time, op int) int {
	return c.addSpan(name, start, start, -1, op)
}

func (c *caller) closeSpan(i int, end time.Time) {
	if i < 0 {
		return
	}
	c.mu.Lock()
	c.spans[i].EndNS = end.Sub(c.epoch).Nanoseconds()
	c.mu.Unlock()
}

func (c *caller) roundTrip(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func terminal(state string) bool {
	return state == "completed" || state == "failed" || state == "cancelled"
}

// do runs one op to its result: POST, then poll until a terminal state.
// from is when the op's latency clock starts — now for a closed loop, the
// due time for an open loop.
func (c *caller) do(op, tmpl int, from time.Time) opResult {
	t := &c.w.Templates[tmpl]
	res := opResult{Index: op, Template: tmpl}
	sendAt := time.Now()
	res.LateMS = ms(sendAt.Sub(from))
	root := c.openSpan("op", from, op)
	finish := func(fail string) opResult {
		end := time.Now()
		res.Fail = fail
		res.LatencyMS = ms(end.Sub(from))
		c.closeSpan(root, end)
		return res
	}

	status, body, err := c.roundTrip(http.MethodPost, t.Path, t.Body)
	posted := time.Now()
	res.SubmitMS = ms(posted.Sub(sendAt))
	c.addSpan("submit", sendAt, posted, root, op)
	if err != nil {
		return finish("submit: " + err.Error())
	}
	if status != http.StatusAccepted {
		return finish(fmt.Sprintf("submit refused: %d %s", status, bytes.TrimSpace(body)))
	}
	var head struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(body, &head); err != nil || head.ID == "" {
		return finish("submit: unreadable 202 body")
	}
	res.ID = head.ID
	statusPath := "/jobs/" + head.ID
	if t.Pipeline {
		statusPath = "/pipelines/" + head.ID
	}

	// The 202 carries the status but never the result, so even an op whose
	// 202 already says completed fetches it once, without waiting first.
	var statusTotal time.Duration
	jitter := pollJitter(c.seed, op)
	for settled := terminal(head.State); ; settled = false {
		asked := time.Now()
		if !settled {
			wait := pollBackoff[len(pollBackoff)-1]
			if res.Polls < len(pollBackoff) {
				wait = pollBackoff[res.Polls]
			}
			time.Sleep(time.Duration(float64(wait) * jitter))
			slept := asked
			asked = time.Now()
			c.addSpan("wait", slept, asked, root, op)
		}
		status, body, err = c.roundTrip(http.MethodGet, statusPath, nil)
		answered := time.Now()
		c.addSpan("poll", asked, answered, root, op)
		res.Polls++
		statusTotal += answered.Sub(asked)
		if err != nil {
			return finish("poll: " + err.Error())
		}
		if status != http.StatusOK {
			return finish(fmt.Sprintf("poll refused: %d %s", status, bytes.TrimSpace(body)))
		}
		if err := json.Unmarshal(body, &head); err != nil {
			return finish("poll: unreadable body")
		}
		if terminal(head.State) {
			break
		}
		if answered.Sub(from) > opTimeout {
			return finish("timed out")
		}
	}
	res.StatusMS = ms(statusTotal) / float64(res.Polls)
	want, ok := c.expected[t.Key]
	if !ok && c.expected != nil {
		return finish("no reference result for " + t.Key + " (regenerate with -record)")
	}
	if t.Pipeline {
		return finish(c.readPipeline(body, &res, want.Pipeline))
	}
	return finish(c.readJob(body, &res, want.Job))
}

// readJob fills res from a terminal job document and checks it against
// want; a nil c.expected (recording) skips the comparison.
func (c *caller) readJob(body []byte, res *opResult, want *jobResult) string {
	var doc jobDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return "unreadable job document"
	}
	if doc.State != "completed" {
		return fmt.Sprintf("job %s: %s", doc.State, doc.Error)
	}
	if doc.Result == nil {
		return "completed job carries no result"
	}
	res.FromCache, res.Job = doc.FromCache, doc.Result
	res.VSec = doc.Result.VirtualSeconds
	res.Com, res.Seq, res.Par, res.DAll = doc.Result.ComSeconds, doc.Result.SeqSeconds, doc.Result.ParSeconds, doc.Result.ImbalanceDAll
	if !doc.Started.IsZero() {
		res.QueueMS = ms(doc.Started.Sub(doc.Submitted))
		res.RunMS = ms(doc.Finished.Sub(doc.Started))
	} else {
		res.QueueMS = ms(doc.Finished.Sub(doc.Submitted))
	}
	if c.expected == nil {
		return ""
	}
	return diffJob(doc.Result, want)
}

func (c *caller) readPipeline(body []byte, res *opResult, want *pipeResult) string {
	var doc pipeDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return "unreadable pipeline document"
	}
	if doc.State != "completed" {
		return fmt.Sprintf("pipeline %s: %s", doc.State, doc.Error)
	}
	var synth *pipeResult
	for i := range doc.Stages {
		st := &doc.Stages[i]
		if st.Synthesis != nil {
			synth = st.Synthesis
		}
		if st.Kind == "analyze" {
			res.Stages++
			res.AnalyzeMS = append(res.AnalyzeMS, ms(st.Finished.Sub(st.Started)))
			if st.FromCache {
				res.StageHits++
			}
		}
	}
	if synth == nil {
		return "completed pipeline carries no synthesis"
	}
	res.Pipe, res.VSec = synth, synth.TotalVirtualSeconds
	res.ServerMS = ms(doc.Finished.Sub(doc.Submitted))
	res.OrchestrationMS = res.ServerMS - criticalPathMS(doc.Stages)
	if c.expected == nil {
		return ""
	}
	return diffPipe(synth, want)
}

// criticalPathMS is the longest dependency chain of a finished pipeline by
// stage run time. Stages arrive in spec order, which lists a stage after
// the stages it depends on.
func criticalPathMS(stages []stageDoc) float64 {
	done := make(map[string]float64, len(stages))
	longest := 0.0
	for _, st := range stages {
		start := 0.0
		for _, dep := range st.After {
			if done[dep] > start {
				start = done[dep]
			}
		}
		done[st.Name] = start + ms(st.Finished.Sub(st.Started))
		if done[st.Name] > longest {
			longest = done[st.Name]
		}
	}
	return longest
}

// phase is one measured stretch of load and what it cost the server.
type phase struct {
	Ops      []opResult
	Spans    []span
	WallS    float64
	Marks    []mark    // one per cycle start, in order, and one at the end
	InFlight []float64 // open loop: ops in flight at each arrival
}

// mark is the clock and the server's CPU time at a cycle boundary. Cycle k
// is the ops issued between marks k and k+1; every cycle is the same
// multiset of work, so per-cycle figures are comparable and their median
// shrugs off a stall that hits one or two of them.
type mark struct {
	AtS  float64 // seconds since the phase began
	CPUS float64 // server user+sys CPU so far
}

// marker takes marks against one server; the first failure to read the
// server's CPU time sticks.
type marker struct {
	s     *server
	start time.Time
	marks []mark
	err   error
}

func (m *marker) mark() {
	cpu, err := m.s.cpuSeconds()
	if err != nil && m.err == nil {
		m.err = err
	}
	m.marks = append(m.marks, mark{AtS: time.Since(m.start).Seconds(), CPUS: cpu})
}

// runOpts bounds a phase. A closed loop runs whole cycles until Seconds
// have passed; the open loop runs the schedule computed for Seconds. MaxOps
// (tests only) cuts either short after that many ops.
type runOpts struct {
	Seconds float64
	MaxOps  int
	Traced  bool
}

// runClosed drives the server with `clients` clients, one keep-alive
// connection each, every client sending its next op when the previous one
// has its result.
func runClosed(s *server, w *workload, seed int64, expected map[string]expectedResult, o runOpts) (phase, error) {
	src := newOpSource(*w, seed)
	var (
		mu      sync.Mutex
		issued  int
		wg      sync.WaitGroup
		results = make([][]opResult, clients)
		callers = make([]*caller, clients)
	)
	start := time.Now()
	marks := marker{s: s, start: start}
	limit := time.Duration(o.Seconds * float64(time.Second))
	take := func() (op, tmpl int, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		if o.MaxOps > 0 && issued >= o.MaxOps {
			return 0, 0, false
		}
		if src.atCycleStart() {
			if o.MaxOps == 0 && issued > 0 && time.Since(start) >= limit {
				return 0, 0, false
			}
			marks.mark()
		}
		issued++
		return issued - 1, src.next(), true
	}
	for i := 0; i < clients; i++ {
		callers[i] = &caller{base: s.base, hc: newHTTPClient(1), expected: expected, w: w, epoch: start, seed: seed, traced: o.Traced}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer callers[i].hc.CloseIdleConnections()
			for {
				op, tmpl, ok := take()
				if !ok {
					return
				}
				results[i] = append(results[i], callers[i].do(op, tmpl, time.Now()))
			}
		}(i)
	}
	wg.Wait()
	marks.mark()
	if marks.err != nil {
		return phase{}, marks.err
	}
	ph := phase{WallS: time.Since(start).Seconds(), Marks: marks.marks}
	for i := range results {
		ph.Ops = append(ph.Ops, results[i]...)
		ph.Spans = appendSpans(ph.Spans, callers[i].spans)
	}
	return ph, nil
}

// appendSpans concatenates span slices, rebasing parent indices.
func appendSpans(dst, src []span) []span {
	base := len(dst)
	for _, sp := range src {
		if sp.Parent >= 0 {
			sp.Parent += base
		}
		dst = append(dst, sp)
	}
	return dst
}

// runOpen sends each op of the schedule at its due time, whether or not
// earlier ones have finished, over `clients` shared connections. Latency
// runs from the due time, so a stalled generator or server shows up in
// every op it delayed.
func runOpen(s *server, w *workload, seed int64, expected map[string]expectedResult, o runOpts) (phase, error) {
	schedule := openSchedule(*w, seed, o.Seconds)
	if o.MaxOps > 0 && o.MaxOps < len(schedule) {
		schedule = schedule[:o.MaxOps]
	}
	start := time.Now()
	marks := marker{s: s, start: start}
	c := &caller{base: s.base, hc: newHTTPClient(clients), expected: expected, w: w, epoch: start, seed: seed, traced: o.Traced}
	defer c.hc.CloseIdleConnections()
	ph := phase{Ops: make([]opResult, len(schedule)), InFlight: make([]float64, len(schedule))}
	var (
		wg       sync.WaitGroup
		inFlight atomic.Int64
	)
	for i, a := range schedule {
		due := start.Add(time.Duration(a.DueNS))
		time.Sleep(time.Until(due))
		if i%len(w.Cycle) == 0 {
			marks.mark()
		}
		ph.InFlight[i] = float64(inFlight.Add(1))
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			ph.Ops[i] = c.do(i, a.Template, due)
			inFlight.Add(-1)
		}(i, a)
	}
	wg.Wait()
	marks.mark()
	ph.WallS, ph.Marks, ph.Spans = time.Since(start).Seconds(), marks.marks, c.spans
	return ph, marks.err
}

// backlogGrowing reports whether the in-flight count was still climbing
// over the last third of an open-loop run: its mean there exceeds the
// middle third's by more than half plus two ops.
func backlogGrowing(inFlight []float64) bool {
	n := len(inFlight)
	if n < 30 {
		return false
	}
	mid, last := mean(inFlight[n/3:2*n/3]), mean(inFlight[2*n/3:])
	return last > 1.5*mid+2
}
