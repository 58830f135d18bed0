package mpi

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/platform"
	"repro/internal/vtime"
)

// faultNet builds a small homogeneous test network.
func faultNet(t *testing.T, p int) *platform.Network {
	t.Helper()
	procs := make([]platform.Processor, p)
	links := make([][]float64, p)
	for i := range procs {
		procs[i] = platform.Processor{ID: i + 1, CycleTime: 0.01, MemoryMB: 1024}
		links[i] = make([]float64, p)
		for j := range links[i] {
			if i != j {
				links[i][j] = 10
			}
		}
	}
	net, err := platform.New("fault-test", procs, links, 0)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// pingPong is a master/worker loop: the master round-robins a message to
// each worker and waits for the echo, with compute charges on both sides.
func pingPong(rounds int) Program {
	return func(c *Comm) any {
		for i := 0; i < rounds; i++ {
			c.Compute(1e6, vtime.Par)
			if c.Root() {
				for dst := 1; dst < c.Size(); dst++ {
					c.Send(dst, i, nil, 1024)
					c.Recv(dst, i)
				}
			} else {
				c.Recv(0, i)
				c.Send(0, i, nil, 1024)
			}
		}
		return c.Rank()
	}
}

// An injected crash surfaces as a RankFailedError carrying the victim's
// rank and the scheduled virtual time, matching ErrRankFailed under
// errors.Is — and the cascade on the survivors never masks it.
func TestInjectedCrashTypedError(t *testing.T) {
	w := NewWorld(faultNet(t, 4))
	plan := &fault.Plan{Crashes: []fault.Crash{{Rank: 2, At: 0.05}}}
	if err := w.SetFaults(plan, 1); err != nil {
		t.Fatal(err)
	}
	_, err := w.Run(pingPong(100))
	if err == nil {
		t.Fatal("run survived an injected crash")
	}
	if !errors.Is(err, ErrRankFailed) {
		t.Fatalf("error %v does not match ErrRankFailed", err)
	}
	if errors.Is(err, ErrCascade) {
		t.Fatalf("cascade masked the originating failure: %v", err)
	}
	var rf *RankFailedError
	if !errors.As(err, &rf) {
		t.Fatalf("error %T is not a *RankFailedError", err)
	}
	if rf.Rank != 2 || rf.VTime != 0.05 {
		t.Fatalf("failure = rank %d at %v, want rank 2 at 0.05", rf.Rank, rf.VTime)
	}
	if !IsRetryable(err) {
		t.Fatal("rank failure not classified retryable")
	}
}

// A rank that dies makes its survivors abort through the failed channel,
// yet Run reports the origin, not their cascade: a raw panic origin
// matches no ErrCascade, and an injected crash origin matches
// ErrRankFailed and is retryable.
func TestCascadeTypedError(t *testing.T) {
	w := NewWorld(faultNet(t, 2))
	_, err := w.Run(func(c *Comm) any {
		if c.Root() {
			// The master dies before sending; the worker cascades. A raw
			// panic (not an injected fault) is the origin here.
			panic("master dies")
		}
		c.Recv(0, 0)
		return nil
	})
	if err == nil || errors.Is(err, ErrCascade) {
		t.Fatalf("origin not preferred over cascade: %v", err)
	}
	// The cascade itself: kill a worker the master never talks to first,
	// so the master's Recv aborts via the failed channel.
	w2 := NewWorld(faultNet(t, 3))
	plan := &fault.Plan{Crashes: []fault.Crash{{Rank: 1, At: 0}}}
	if err := w2.SetFaults(plan, 1); err != nil {
		t.Fatal(err)
	}
	_, err = w2.Run(pingPong(10))
	if !errors.Is(err, ErrRankFailed) {
		t.Fatalf("error %v, want the injected rank failure", err)
	}
	if !IsRetryable(err) {
		t.Fatal("injected failure not retryable")
	}
}

// Cancellation wins over cascade but loses to a genuine origin, keeping
// the documented precedence origin > cancellation > cascade under the
// typed classification.
func TestPrecedenceCancellationVsCascade(t *testing.T) {
	w := NewWorld(faultNet(t, 3))
	ctx, cancel := context.WithCancel(context.Background())
	w.SetContext(ctx)
	started := make(chan struct{})
	var once bool
	done := make(chan error, 1)
	go func() {
		_, err := w.Run(func(c *Comm) any {
			if c.Root() && !once {
				once = true
				close(started)
			}
			for i := 0; ; i++ {
				c.Compute(1e4, vtime.Par)
				c.Barrier(i)
			}
		})
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error = %v, want context.Canceled", err)
		}
		if IsRetryable(err) {
			t.Fatal("cancellation classified retryable")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled run never returned")
	}
}

// Same plan, same program, same seed: two runs produce identical virtual
// clocks and the identical failure, the replayability contract of the
// fault subsystem.
func TestFaultReplayDeterministic(t *testing.T) {
	plan, err := fault.Random(7, fault.RandomConfig{Ranks: 4, Crashes: 1, LinkSlows: 2, Degrades: 2, Horizon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*RunResult, error) {
		w := NewWorld(faultNet(t, 4))
		if err := w.SetFaults(plan, 1); err != nil {
			t.Fatal(err)
		}
		return w.Run(pingPong(200))
	}
	_, err1 := run()
	_, err2 := run()
	if err1 == nil || err2 == nil {
		t.Fatal("expected the injected crash to fail both runs")
	}
	if err1.Error() != err2.Error() {
		t.Fatalf("replay diverged:\n%v\n%v", err1, err2)
	}
	var a, b *RankFailedError
	if !errors.As(err1, &a) || !errors.As(err2, &b) {
		t.Fatalf("errors not rank failures: %v / %v", err1, err2)
	}
	if a.Rank != b.Rank || a.VTime != b.VTime {
		t.Fatalf("failure point diverged: %+v vs %+v", a, b)
	}
}

// Link slowdowns and compute degradation stretch virtual time by exactly
// the configured factors, deterministically.
func TestSlowdownsStretchVirtualTime(t *testing.T) {
	base := func(plan *fault.Plan) float64 {
		w := NewWorld(faultNet(t, 2))
		if plan != nil {
			if err := w.SetFaults(plan, 1); err != nil {
				t.Fatal(err)
			}
		}
		res, err := w.Run(pingPong(5))
		if err != nil {
			t.Fatal(err)
		}
		return res.WallTime()
	}
	nominal := base(nil)
	degraded := base(&fault.Plan{Degrades: []fault.Degrade{{Rank: 1, From: 0, To: 1e9, Factor: 3}}})
	slowedLink := base(&fault.Plan{LinkSlows: []fault.LinkSlow{{Src: 0, Dst: 1, From: 0, To: 1e9, Factor: 5}}})
	if degraded <= nominal || slowedLink <= nominal {
		t.Fatalf("injection did not slow the run: nominal %v, degraded %v, slowed link %v", nominal, degraded, slowedLink)
	}
	// Repeatability.
	if again := base(&fault.Plan{Degrades: []fault.Degrade{{Rank: 1, From: 0, To: 1e9, Factor: 3}}}); again != degraded {
		t.Fatalf("degraded run not deterministic: %v vs %v", again, degraded)
	}
}

// A crash pinned to attempt 1 spares attempt 2 — the transient-fault
// model behind sched's retry.
func TestAttemptFilteredCrash(t *testing.T) {
	plan := &fault.Plan{Crashes: []fault.Crash{{Rank: 1, At: 0, Attempt: 1}}}
	w1 := NewWorld(faultNet(t, 2))
	if err := w1.SetFaults(plan, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := w1.Run(pingPong(3)); !errors.Is(err, ErrRankFailed) {
		t.Fatalf("attempt 1: error %v, want rank failure", err)
	}
	w2 := NewWorld(faultNet(t, 2))
	if err := w2.SetFaults(plan, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Run(pingPong(3)); err != nil {
		t.Fatalf("attempt 2 should survive, got %v", err)
	}
}

// Regression (ISSUE 2): ReduceFloat64 must seed the fold with the root's
// own value even when root != 0. A non-commutative op exposes the old
// vals[0] seeding immediately.
func TestReduceFloat64NonzeroRoot(t *testing.T) {
	const root = 2
	w := NewWorld(faultNet(t, 4))
	res, err := w.Run(func(c *Comm) any {
		// Rank r contributes 10^r; op keeps the accumulator's sign
		// history: acc*10 + b is non-commutative and order-revealing.
		v := float64(c.Rank() + 1)
		return c.ReduceFloat64(root, 5, v, func(a, b float64) float64 { return a*10 + b })
	})
	if err != nil {
		t.Fatal(err)
	}
	// Seed vals[2]=3, then ranks 0,1,3 in order: ((3*10+1)*10+2)*10+4.
	want := ((3.0*10+1)*10+2)*10 + 4
	if got := res.Values[root].(float64); got != want {
		t.Fatalf("reduce at root %d = %v, want %v", root, got, want)
	}
	for r, v := range res.Values {
		if r != root && v.(float64) != 0 {
			t.Fatalf("non-root rank %d returned %v, want 0", r, v)
		}
	}
}
