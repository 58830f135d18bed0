// Package mpi provides an MPI-style message-passing layer for simulating
// parallel hyperspectral imaging algorithms on heterogeneous networks.
//
// Go has no mature MPI binding, and the networks evaluated by Plaza
// (CLUSTER 2006) no longer exist, so this package reinvents the messaging
// substrate the paper relied on: an SPMD programming model (ranks, tags,
// point-to-point sends and receives, master-centric collectives) in which
// the computation executes for real — one goroutine per simulated
// processor, operating on real data partitions — while time is *virtual*,
// driven by the platform cost model of package platform and accounted by
// package vtime.
//
// # Timing semantics
//
// A message of b bytes from rank i to rank j is charged
// platform.TransferTime(b,i,j) seconds. The sender pays that cost into its
// COM bucket. The receiver first advances (idle, charged to PAR — matching
// the paper's convention that worker idle time counts as parallel
// computation time) to the moment the sender was ready, then pays the
// transfer into COM. Because both endpoints pay the transfer, a
// synchronous round-trip leaves both clocks aligned, exactly like a
// blocking MPI exchange.
//
// # Determinism
//
// Matching is FIFO per (source, destination) pair, receives name their
// source explicitly, and collectives iterate ranks in order, so a program
// whose own logic is deterministic yields bit-for-bit reproducible virtual
// timings regardless of how the host schedules the goroutines.
package mpi

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/fault"
	"repro/internal/platform"
	"repro/internal/vtime"
)

// mailboxCapacity bounds in-flight messages per (src,dst) pair. Sends are
// eager (buffered) so well-formed master/worker programs cannot deadlock;
// the capacity is generous because the algorithms in this repository
// exchange a handful of messages per pair per iteration. It is a bound,
// not a reservation: a mailbox's storage follows its unreceived messages.
const mailboxCapacity = 1024

// message is one in-flight transfer.
type message struct {
	tag     int
	payload any
	bytes   int
	ready   float64 // sender virtual time before the transfer began
	arrival float64 // ready + transfer cost
}

// mailbox is the FIFO of one ordered (src,dst) pair. Its storage grows
// with the messages waiting in it, up to mailboxCapacity, and is reused
// once they are received. Each pair has one sender and one receiver, so
// a one-slot wake channel is enough to park the receiver: a push after
// the receiver found the queue empty leaves a token it cannot miss.
type mailbox struct {
	mu   sync.Mutex
	q    []message // unreceived messages are q[head:]
	head int
	wake chan struct{}
}

// push appends m, reporting false when the pair already holds
// mailboxCapacity unreceived messages.
func (b *mailbox) push(m message) bool {
	b.mu.Lock()
	if len(b.q)-b.head >= mailboxCapacity {
		b.mu.Unlock()
		return false
	}
	if b.head > 0 && len(b.q) == cap(b.q) {
		// Slide the waiting messages down instead of growing.
		n := copy(b.q, b.q[b.head:])
		clear(b.q[n:])
		b.q, b.head = b.q[:n], 0
	}
	b.q = append(b.q, m)
	b.mu.Unlock()
	select {
	case b.wake <- struct{}{}:
	default: // a token is already waiting
	}
	return true
}

// pop removes the oldest message, reporting false when none is waiting.
func (b *mailbox) pop() (message, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.head == len(b.q) {
		return message{}, false
	}
	m := b.q[b.head]
	b.q[b.head] = message{} // the payload is the receiver's now
	b.head++
	if b.head == len(b.q) {
		b.q, b.head = b.q[:0], 0
	}
	return m, true
}

// World is a simulated cluster: a platform description plus one mailbox
// per ordered processor pair. Mailboxes are created lazily on first use:
// the master/worker algorithms only ever exercise O(P) of the P^2 pairs.
type World struct {
	net          *platform.Network
	ctx          context.Context // nil means "never cancelled"
	mailboxMu    sync.Mutex
	mailbox      [][]*mailbox  // [src][dst], nil until first use
	failed       chan struct{} // closed when any rank panics
	failOnce     sync.Once
	computeScale float64
	dataScale    float64
	trace        *Trace
	faults       *fault.Plan
	attempt      int // 1-based execution attempt for fault-plan filtering
}

// NewWorld creates a world over the given network.
func NewWorld(net *platform.Network) *World {
	p := net.Size()
	mb := make([][]*mailbox, p)
	for i := range mb {
		mb[i] = make([]*mailbox, p)
	}
	return &World{net: net, mailbox: mb, failed: make(chan struct{}), computeScale: 1, dataScale: 1}
}

// box returns the mailbox for the ordered pair, creating it on first use.
func (w *World) box(src, dst int) *mailbox {
	w.mailboxMu.Lock()
	b := w.mailbox[src][dst]
	if b == nil {
		b = &mailbox{wake: make(chan struct{}, 1)}
		w.mailbox[src][dst] = b
	}
	w.mailboxMu.Unlock()
	return b
}

// SetComputeScale multiplies every subsequent flop charge by s. The
// experiment drivers use it to simulate the computation of the paper's
// full-size scene (2133x512 pixels, 224 bands) while executing a reduced
// one: per-iteration computation then lands at full-problem magnitude
// against communication costs that are largely independent of the pixel
// count, preserving the paper's compute-to-communication balance. Must be
// called before Run.
func (w *World) SetComputeScale(s float64) {
	if s <= 0 {
		panic(fmt.Sprintf("mpi: invalid compute scale %v", s))
	}
	w.computeScale = s
}

// SetDataScale multiplies the byte size of pixel-proportional transfers
// (scene scatter, label gathers) by s, the counterpart of SetComputeScale
// on the communication side: a reduced scene's bulk data movement is
// charged at full-problem volume. Algorithms opt in per message via
// Comm.DataScale; signature-sized control messages stay unscaled. Must be
// called before Run.
func (w *World) SetDataScale(s float64) {
	if s <= 0 {
		panic(fmt.Sprintf("mpi: invalid data scale %v", s))
	}
	w.dataScale = s
}

// fail aborts the run: ranks blocked in Recv unblock and panic, so Run
// terminates instead of deadlocking when one rank dies mid-protocol.
func (w *World) fail() {
	w.failOnce.Do(func() { close(w.failed) })
}

// SetFaults attaches a fault-injection plan (see package fault) to the
// world, filtered to the given 1-based execution attempt (values < 1 mean
// attempt 1). Every Send, Recv, Compute and Checkpoint charge consults the
// plan: a crash event kills its rank with a RankFailedError the moment the
// rank's virtual clock reaches the event's time, link-slowdown windows
// multiply transfer costs, and degradation windows multiply compute and
// elapse costs. A nil plan clears injection. Must be called before Run.
func (w *World) SetFaults(plan *fault.Plan, attempt int) error {
	if err := plan.Validate(w.Size()); err != nil {
		return err
	}
	if attempt < 1 {
		attempt = 1
	}
	w.faults, w.attempt = plan, attempt
	return nil
}

// SetContext attaches a cancellation context to the world. Once the
// context is done, every rank aborts at its next communication or
// computation charge (and ranks blocked in Recv unblock immediately), and
// Run returns an error wrapping ctx.Err(), so callers can detect
// cancellation with errors.Is(err, context.Canceled) or
// errors.Is(err, context.DeadlineExceeded). Must be called before Run.
func (w *World) SetContext(ctx context.Context) { w.ctx = ctx }

// abortError is the panic payload of a context-cancelled rank; Run
// translates it into an error wrapping the context's cause.
type abortError struct{ err error }

// done returns the cancellation channel, or nil (blocks forever in a
// select) when no context is attached.
func (w *World) done() <-chan struct{} {
	if w.ctx == nil {
		return nil
	}
	return w.ctx.Done()
}

// checkAborted panics with the context error if the world's context is
// done. Called on every Send, Recv and Compute so a cancelled run stops
// within one charge of virtual work.
func (w *World) checkAborted() {
	if w.ctx == nil {
		return
	}
	select {
	case <-w.ctx.Done():
		panic(abortError{w.ctx.Err()})
	default:
	}
}

// Network returns the platform the world simulates.
func (w *World) Network() *platform.Network { return w.net }

// Size returns the number of ranks.
func (w *World) Size() int { return w.net.Size() }

// RankCounters aggregates one rank's message and compute activity over a
// run: the raw material behind the telemetry layer's per-rank MPI
// counters. Bytes reflect the sizes the algorithms charged (data scale
// included); Flops reflect the flops charged (compute scale included).
type RankCounters struct {
	Sends, Recvs int
	BytesSent    int64
	BytesRecv    int64
	Computes     int
	Flops        float64
	// Checkpoints counts round-boundary snapshot charges (saves and
	// restores); CheckpointBytes totals their payload sizes and
	// CheckpointSeconds the virtual time they cost on this rank's clock.
	Checkpoints       int
	CheckpointBytes   int64
	CheckpointSeconds float64
}

// Comm is one rank's endpoint into the world. It is created by Run and
// confined to the goroutine simulating that rank.
type Comm struct {
	world *World
	rank  int
	clock *vtime.Clock
	ctr   RankCounters

	// stash holds messages pulled off mailboxes by PeekEarliest but not
	// yet consumed by Recv, FIFO per source. Confined to the rank's
	// goroutine like everything else on Comm.
	stash map[int][]message

	// crashAt is the virtual time at which an injected fault kills this
	// rank; meaningful only when hasCrash is set.
	crashAt  float64
	hasCrash bool
}

// checkFailed panics with a RankFailedError once the rank's virtual clock
// has reached its injected crash time. Called at the start of every
// charge and again after the clock advances, so a rank dies within one
// charge of its scheduled failure — deterministically, because virtual
// clocks are independent of host scheduling.
func (c *Comm) checkFailed() {
	if c.hasCrash && c.clock.Now() >= c.crashAt {
		panic(&RankFailedError{Rank: c.rank, VTime: c.crashAt})
	}
}

// computeFactor returns the active fault-plan degradation multiplier for
// a compute or elapse charge starting now on this rank.
func (c *Comm) computeFactor() float64 {
	return c.world.faults.ComputeFactor(c.world.attempt, c.rank, c.clock.Now())
}

// Rank returns this processor's rank; rank 0 is the master.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.world.Size() }

// Root reports whether this rank is the master.
func (c *Comm) Root() bool { return c.rank == 0 }

// Clock exposes the rank's virtual clock.
func (c *Comm) Clock() *vtime.Clock { return c.clock }

// World returns the world this endpoint belongs to.
func (c *Comm) World() *World { return c.world }

// Compute charges flops of computation in the given category (vtime.Seq
// for master-only phases, vtime.Par otherwise), scaled by the world's
// compute scale. Use it for work that grows with the scene (per-pixel
// loops); use ComputeFixed for problem-size-independent steps.
func (c *Comm) Compute(flops float64, cat vtime.Category) {
	c.chargeCompute(flops*c.world.computeScale, cat)
}

// ComputeFixed charges flops without the world's compute scale, for work
// whose size does not depend on the scene's pixel count: projector and
// Gram builds, candidate re-scoring at the master, set merges, and the
// eigendecomposition.
func (c *Comm) ComputeFixed(flops float64, cat vtime.Category) {
	c.chargeCompute(flops, cat)
}

// chargeCompute advances the clock by the (possibly degraded) cost of the
// flops, checks cancellation and injected crashes, and traces the charge.
func (c *Comm) chargeCompute(flops float64, cat vtime.Category) {
	c.world.checkAborted()
	c.checkFailed()
	start := c.clock.Now()
	c.ctr.Computes++
	c.ctr.Flops += flops
	c.clock.ComputeDegraded(flops, c.computeFactor(), cat)
	c.checkFailed()
	c.world.trace.add(Event{Rank: c.rank, Kind: EventCompute, Peer: -1, Start: start, Dur: c.clock.Now() - start, Cat: cat})
}

// DataScale reports the world's pixel-data byte multiplier; algorithms
// multiply the sizes of pixel-proportional transfers by it.
func (c *Comm) DataScale() float64 { return c.world.dataScale }

// ComputeScale reports the world's flop multiplier, the factor Compute
// applies to every scene-proportional charge. Cost predictors (the
// balance layer's estimator) need it to translate model flops into the
// same scaled units the clock actually advances by.
func (c *Comm) ComputeScale() float64 { return c.world.computeScale }

// Checkpoint charges seconds of round-boundary snapshot I/O for a payload
// of the given size — the master persisting its round state (package
// checkpoint supplies the cost model; this layer only meters). The charge
// lands in SEQ (master-resident bookkeeping, like the paper's sequential
// phases), honours cancellation, injected crashes and degradation windows
// exactly like Compute, and is traced as its own event kind so timelines
// separate snapshot writes from algorithm work.
func (c *Comm) Checkpoint(bytes int, seconds float64) {
	c.world.checkAborted()
	c.checkFailed()
	start := c.clock.Now()
	c.ctr.Checkpoints++
	c.ctr.CheckpointBytes += int64(bytes)
	c.ctr.CheckpointSeconds += seconds * c.computeFactor()
	c.clock.Add(seconds*c.computeFactor(), vtime.Seq)
	c.checkFailed()
	c.world.trace.add(Event{Rank: c.rank, Kind: EventCheckpoint, Peer: -1, Bytes: bytes, Start: start, Dur: c.clock.Now() - start, Cat: vtime.Seq})
}

// Send transfers payload (of the given serialized size in bytes) to rank
// dst with the given tag. The virtual transfer cost is charged to this
// rank's COM bucket. Sending to self is a free local hand-off.
//
// Ownership of the payload passes to the receiver: the sender must not
// mutate it afterwards. (The simulation shares memory; the cost model,
// not a copy, represents the wire.)
func (c *Comm) Send(dst, tag int, payload any, bytes int) {
	c.world.checkAborted()
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("mpi: send to invalid rank %d (world size %d)", dst, c.Size()))
	}
	if bytes < 0 {
		panic(fmt.Sprintf("mpi: negative message size %d", bytes))
	}
	c.checkFailed()
	ready := c.clock.Now()
	cost := c.world.net.TransferTime(bytes, c.rank, dst) *
		c.world.faults.LinkFactor(c.world.attempt, c.rank, dst, ready)
	c.ctr.Sends++
	c.ctr.BytesSent += int64(bytes)
	c.clock.Add(cost, vtime.Com)
	c.checkFailed()
	c.world.trace.add(Event{Rank: c.rank, Kind: EventSend, Tag: tag, Peer: dst, Bytes: bytes, Start: ready, Dur: cost, Cat: vtime.Com})
	m := message{tag: tag, payload: payload, bytes: bytes, ready: ready, arrival: ready + cost}
	if !c.world.box(c.rank, dst).push(m) {
		panic(fmt.Sprintf("mpi: mailbox %d->%d overflow (more than %d unreceived messages)", c.rank, dst, mailboxCapacity))
	}
}

// Recv blocks until the next message from rank src arrives, verifies its
// tag, charges idle time (PAR) up to the sender's ready time and the
// transfer itself (COM), and returns the payload.
func (c *Comm) Recv(src, tag int) any {
	if src < 0 || src >= c.Size() {
		panic(fmt.Sprintf("mpi: recv from invalid rank %d (world size %d)", src, c.Size()))
	}
	c.world.checkAborted()
	c.checkFailed()
	m := c.take(src)
	if m.tag != tag {
		panic(fmt.Sprintf("mpi: rank %d expected tag %d from %d, got %d", c.rank, tag, src, m.tag))
	}
	start := c.clock.Now()
	c.ctr.Recvs++
	c.ctr.BytesRecv += int64(m.bytes)
	c.clock.AdvanceTo(m.ready, vtime.Idle) // waiting for the peer to produce the data
	wait := c.clock.Now() - start
	c.clock.AdvanceTo(m.arrival, vtime.Com) // the transfer itself
	c.checkFailed()
	c.world.trace.add(Event{Rank: c.rank, Kind: EventRecv, Tag: m.tag, Peer: src, Bytes: m.bytes, Start: start, Dur: c.clock.Now() - start, Wait: wait, Cat: vtime.Com})
	return m.payload
}

// take returns the next message from src: the stash head if PeekEarliest
// buffered one, otherwise a blocking mailbox read with the usual
// cancellation and cascade handling.
func (c *Comm) take(src int) message {
	if q := c.stash[src]; len(q) > 0 {
		c.stash[src] = q[1:]
		return q[0]
	}
	box := c.world.box(src, c.rank)
	for {
		if m, ok := box.pop(); ok {
			return m
		}
		select {
		case <-box.wake:
		case <-c.world.done():
			panic(abortError{c.world.ctx.Err()})
		case <-c.world.failed:
			// Drain anything that raced with the failure notification.
			if m, ok := box.pop(); ok {
				return m
			}
			panic(cascadeAbort{})
		}
	}
}

// PeekEarliest blocks (in host time) until every listed source has a
// pending message, verifies their tags, and reports which one finishes
// its virtual transfer first — ties broken by lower rank — without
// consuming it or charging this rank's clock. The peeked messages stay
// buffered for Recv.
//
// This is the deterministic replacement for a receive-any: the winner is
// a pure function of the senders' virtual clocks, never of host
// scheduling, because the choice is made only once every candidate is
// physically present. A demand-driven master uses it to learn which
// worker's report to consume next, and how long its own clock may keep
// busy (ready) before that worker starts waiting.
func (c *Comm) PeekEarliest(srcs []int, tag int) (src int, ready, arrival float64) {
	if len(srcs) == 0 {
		panic("mpi: PeekEarliest with no sources")
	}
	c.world.checkAborted()
	c.checkFailed()
	if c.stash == nil {
		c.stash = make(map[int][]message)
	}
	src = -1
	for _, s := range srcs {
		if s < 0 || s >= c.Size() {
			panic(fmt.Sprintf("mpi: peek from invalid rank %d (world size %d)", s, c.Size()))
		}
		if len(c.stash[s]) == 0 {
			c.stash[s] = append(c.stash[s], c.take(s))
		}
		m := c.stash[s][0]
		if m.tag != tag {
			panic(fmt.Sprintf("mpi: rank %d peeked tag %d from %d, want %d", c.rank, m.tag, s, tag))
		}
		if src < 0 || m.arrival < arrival || (m.arrival == arrival && s < src) {
			src, ready, arrival = s, m.ready, m.arrival
		}
	}
	return src, ready, arrival
}

// RecvAs receives from src with the given tag and type-asserts the
// payload.
func RecvAs[T any](c *Comm, src, tag int) T {
	v := c.Recv(src, tag)
	tv, ok := v.(T)
	if !ok {
		panic(fmt.Sprintf("mpi: rank %d: payload from %d tag %d is %T, not the requested type", c.rank, src, tag, v))
	}
	return tv
}

// Bcast distributes payload of the given size from root to every rank,
// returning the payload at all ranks. The root sends linearly in rank
// order, modelling the master-centric distribution the paper's algorithms
// use.
func (c *Comm) Bcast(root, tag int, payload any, bytes int) any {
	if c.rank == root {
		for dst := 0; dst < c.Size(); dst++ {
			if dst != root {
				c.Send(dst, tag, payload, bytes)
			}
		}
		return payload
	}
	return c.Recv(root, tag)
}

// Gather collects one payload (with per-rank sizes) from every rank at
// root, in rank order. At the root it returns a slice indexed by rank
// (the root's own contribution included); at other ranks it returns nil.
func (c *Comm) Gather(root, tag int, payload any, bytes int) []any {
	if c.rank != root {
		c.Send(root, tag, payload, bytes)
		return nil
	}
	out := make([]any, c.Size())
	for src := 0; src < c.Size(); src++ {
		if src == root {
			out[src] = payload
			continue
		}
		out[src] = c.Recv(src, tag)
	}
	return out
}

// RunResult holds the outcome of a simulated SPMD run.
type RunResult struct {
	// Values holds each rank's return value, indexed by rank.
	Values []any
	// Clocks holds each rank's final clock snapshot, indexed by rank.
	Clocks []vtime.Snapshot
	// Counters holds each rank's message and compute counters, indexed
	// by rank.
	Counters []RankCounters
}

// Root returns rank 0's return value.
func (r *RunResult) Root() any { return r.Values[0] }

// WallTime returns the virtual wall-clock of the run: the maximum final
// time over all processors.
func (r *RunResult) WallTime() float64 {
	var max float64
	for _, s := range r.Clocks {
		if s.Now > max {
			max = s.Now
		}
	}
	return max
}

// RootBreakdown returns the master's COM/SEQ/PAR decomposition, which is
// how Table 6 of the paper decomposes each run's execution time. Matching
// the paper's convention, PAR includes the root's idle time at
// synchronization points ("the times in which the workers remain idle").
func (r *RunResult) RootBreakdown() (com, seq, par float64) {
	s := r.Clocks[0]
	return s.Com, s.Seq, s.Par + s.Idle
}

// ProcTimes returns each processor's total run time (its final virtual
// clock).
func (r *RunResult) ProcTimes() []float64 {
	out := make([]float64, len(r.Clocks))
	for i, s := range r.Clocks {
		out[i] = s.Now
	}
	return out
}

// BusyTimes returns each processor's busy run time (final clock minus
// time spent waiting at synchronization points) — the processor run times
// behind the load-imbalance ratios of Table 7. Completion times would be
// useless there: the final gather synchronizes every clock.
func (r *RunResult) BusyTimes() []float64 {
	out := make([]float64, len(r.Clocks))
	for i, s := range r.Clocks {
		out[i] = s.Busy()
	}
	return out
}

// Program is an SPMD entry point: every rank runs the same function and
// branches on c.Rank().
type Program func(c *Comm) any

// Run executes program on every rank of the world concurrently and waits
// for all ranks to finish. A panic on any rank is captured and returned
// as an error (after all surviving ranks have been given the chance to
// finish or deadlock-panic themselves; mailbox buffering keeps senders
// from blocking). A panic with an error value wraps it, so errors.Is sees
// the program's own failure through the run's error.
//
// A World must not be reused across runs: undelivered messages would leak
// into the next program. Create a fresh World per run.
func (w *World) Run(program Program) (result *RunResult, err error) {
	p := w.Size()
	res := &RunResult{
		Values:   make([]any, p),
		Clocks:   make([]vtime.Snapshot, p),
		Counters: make([]RankCounters, p),
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for rank := 0; rank < p; rank++ {
		go func(rank int) {
			defer wg.Done()
			c := &Comm{world: w, rank: rank, clock: vtime.NewClock(w.net.Procs[rank].CycleTime)}
			c.crashAt, c.hasCrash = w.faults.CrashTime(w.attempt, rank)
			defer func() {
				if r := recover(); r != nil {
					switch v := r.(type) {
					case abortError:
						errs[rank] = fmt.Errorf("mpi: rank %d: run cancelled: %w", rank, v.err)
					case *RankFailedError:
						errs[rank] = v
					case cascadeAbort:
						errs[rank] = &CascadeError{Rank: rank}
					case error:
						errs[rank] = fmt.Errorf("mpi: rank %d panicked: %w", rank, v)
					default:
						errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, r)
					}
					w.fail()
				}
				res.Clocks[rank] = c.clock.Snapshot()
				res.Counters[rank] = c.ctr
			}()
			res.Values[rank] = program(c)
		}(rank)
	}
	wg.Wait()
	// Prefer the originating failure over the cascade it triggers on the
	// surviving ranks, and a genuine program failure over the
	// context-cancellation panics that may race with it on other ranks:
	// origin > cancellation > cascade.
	var first, cancelled, cascade error
	for _, e := range errs {
		switch {
		case e == nil:
		case errors.Is(e, context.Canceled) || errors.Is(e, context.DeadlineExceeded):
			if cancelled == nil {
				cancelled = e
			}
		case errors.Is(e, ErrCascade):
			if cascade == nil {
				cascade = e
			}
		default:
			if first == nil {
				first = e
			}
		}
	}
	if first != nil {
		return nil, first
	}
	if cancelled != nil {
		return nil, cancelled
	}
	if cascade != nil {
		return nil, cascade
	}
	return res, nil
}
