package mpi

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/platform"
	"repro/internal/vtime"
)

// twoNode builds a minimal 2-processor network with distinct cycle-times
// and a known link capacity for hand-checkable timing arithmetic.
func twoNode(t *testing.T, linkMS float64) *platform.Network {
	t.Helper()
	procs := []platform.Processor{
		{ID: 1, CycleTime: 0.01, MemoryMB: 1024},
		{ID: 2, CycleTime: 0.02, MemoryMB: 1024},
	}
	links := [][]float64{{0, linkMS}, {linkMS, 0}}
	n, err := platform.New("two", procs, links, 0)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func homoNet(t *testing.T, p int, w, linkMS float64) *platform.Network {
	t.Helper()
	procs := make([]platform.Processor, p)
	links := make([][]float64, p)
	for i := range procs {
		procs[i] = platform.Processor{ID: i + 1, CycleTime: w, MemoryMB: 1024}
		links[i] = make([]float64, p)
		for j := range links[i] {
			if i != j {
				links[i][j] = linkMS
			}
		}
	}
	n, err := platform.New("homo", procs, links, 0)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func mustRun(t *testing.T, w *World, p Program) *RunResult {
	t.Helper()
	res, err := w.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRankAndSize(t *testing.T) {
	w := NewWorld(homoNet(t, 4, 0.01, 10))
	res := mustRun(t, w, func(c *Comm) any {
		if c.Size() != 4 {
			t.Errorf("Size = %d", c.Size())
		}
		if (c.Rank() == 0) != c.Root() {
			t.Errorf("Root() inconsistent at rank %d", c.Rank())
		}
		return c.Rank()
	})
	for r := 0; r < 4; r++ {
		if res.Values[r] != r {
			t.Errorf("rank %d returned %v", r, res.Values[r])
		}
	}
}

func TestProcMapsToNetwork(t *testing.T) {
	net := twoNode(t, 10)
	w := NewWorld(net)
	mustRun(t, w, func(c *Comm) any {
		// One unscaled megaflop on a fresh clock costs the rank's cycle-time.
		c.ComputeFixed(1e6, vtime.Seq)
		if got := c.Clock().Now(); got != net.Procs[c.Rank()].CycleTime {
			t.Errorf("rank %d: one megaflop took %v s, want cycle-time %v", c.Rank(), got, net.Procs[c.Rank()].CycleTime)
		}
		return nil
	})
}

func TestSendRecvPayloadAndTiming(t *testing.T) {
	// 1 Mbit at 10 ms/Mbit with zero latency: transfer = 0.010 s.
	w := NewWorld(twoNode(t, 10))
	const bytes = 125000
	res := mustRun(t, w, func(c *Comm) any {
		if c.Rank() == 0 {
			c.Send(1, 7, []float32{1, 2, 3}, bytes)
			return nil
		}
		got := RecvAs[[]float32](c, 0, 7)
		return got[2]
	})
	if res.Values[1] != float32(3) {
		t.Errorf("payload corrupted: %v", res.Values[1])
	}
	wantT := 0.010
	if got := res.Clocks[0].Com; math.Abs(got-wantT) > 1e-12 {
		t.Errorf("sender COM = %v, want %v", got, wantT)
	}
	if got := res.Clocks[1].Com; math.Abs(got-wantT) > 1e-12 {
		t.Errorf("receiver COM = %v, want %v", got, wantT)
	}
	if got := res.Clocks[1].Now; math.Abs(got-wantT) > 1e-12 {
		t.Errorf("receiver finished at %v, want %v", got, wantT)
	}
}

func TestRecvChargesIdleSeparately(t *testing.T) {
	// Rank 0 computes 1.0 s (100 Mflop at 0.01 s/Mflop) before sending.
	// Rank 1 receives immediately: it must charge ~1.0 s to IDLE and the
	// transfer to COM, leaving its busy time free of the wait.
	w := NewWorld(twoNode(t, 10))
	res := mustRun(t, w, func(c *Comm) any {
		if c.Rank() == 0 {
			c.Compute(100e6, vtime.Par)
			c.Send(1, 1, nil, 125000)
		} else {
			c.Recv(0, 1)
		}
		return nil
	})
	if got := res.Clocks[1].Idle; math.Abs(got-1.0) > 1e-9 {
		t.Errorf("receiver IDLE = %v, want 1.0", got)
	}
	if got := res.Clocks[1].Com; math.Abs(got-0.010) > 1e-12 {
		t.Errorf("receiver COM = %v, want 0.010", got)
	}
	if got := res.BusyTimes()[1]; math.Abs(got-0.010) > 1e-12 {
		t.Errorf("receiver busy time = %v, want 0.010 (transfer only)", got)
	}
}

func TestRecvAfterArrivalChargesNothing(t *testing.T) {
	// Receiver is already past the arrival time: the data is waiting in
	// the (virtual) buffer, so the receive is free.
	w := NewWorld(twoNode(t, 10))
	res := mustRun(t, w, func(c *Comm) any {
		if c.Rank() == 0 {
			c.Send(1, 1, 42, 125000)
		} else {
			c.Compute(500e6, vtime.Par) // 10 s on the 0.02 s/Mflop node
			c.Recv(0, 1)
		}
		return nil
	})
	if got := res.Clocks[1].Com; got != 0 {
		t.Errorf("late receiver charged COM %v, want 0", got)
	}
	if got := res.Clocks[1].Now; math.Abs(got-10) > 1e-9 {
		t.Errorf("late receiver time %v, want 10", got)
	}
}

func TestFIFOOrderPerPair(t *testing.T) {
	w := NewWorld(twoNode(t, 1))
	res := mustRun(t, w, func(c *Comm) any {
		if c.Rank() == 0 {
			for i := 0; i < 10; i++ {
				c.Send(1, 5, i, 4)
			}
			return nil
		}
		out := make([]int, 10)
		for i := range out {
			out[i] = RecvAs[int](c, 0, 5)
		}
		return out
	})
	got := res.Values[1].([]int)
	for i, v := range got {
		if v != i {
			t.Fatalf("message %d out of order: %v", i, got)
		}
	}
}

func TestTagMismatchFailsRun(t *testing.T) {
	w := NewWorld(twoNode(t, 1))
	_, err := w.Run(func(c *Comm) any {
		if c.Rank() == 0 {
			c.Send(1, 1, nil, 0)
		} else {
			c.Recv(0, 2)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "expected tag") {
		t.Errorf("err = %v, want tag mismatch", err)
	}
}

func TestRecvAsTypeMismatchFailsRun(t *testing.T) {
	w := NewWorld(twoNode(t, 1))
	_, err := w.Run(func(c *Comm) any {
		if c.Rank() == 0 {
			c.Send(1, 1, "a string", 8)
		} else {
			RecvAs[int](c, 0, 1)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "not the requested type") {
		t.Errorf("err = %v, want type mismatch", err)
	}
}

func TestInvalidRankPanicsAreCaptured(t *testing.T) {
	w := NewWorld(twoNode(t, 1))
	_, err := w.Run(func(c *Comm) any {
		if c.Rank() == 0 {
			c.Send(5, 1, nil, 0)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "invalid rank") {
		t.Errorf("err = %v, want invalid rank", err)
	}
}

func TestPanicOnOneRankDoesNotDeadlock(t *testing.T) {
	// Rank 1 dies before sending; rank 0 is blocked in Recv and must be
	// released by the failure broadcast rather than deadlocking.
	w := NewWorld(twoNode(t, 1))
	_, err := w.Run(func(c *Comm) any {
		if c.Rank() == 1 {
			panic("worker died")
		}
		c.Recv(1, 9)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "worker died") {
		t.Errorf("err = %v, want the originating panic", err)
	}
	// A program panic is a bug, not a rank failure: only an injected
	// fault (package fault) produces the retryable failure classes.
	if errors.Is(err, ErrRankFailed) || errors.Is(err, ErrCascade) || IsRetryable(err) {
		t.Errorf("panic err = %v classifies as a rank failure or cascade, or is retryable", err)
	}
}

func TestBcastDeliversToAll(t *testing.T) {
	w := NewWorld(homoNet(t, 5, 0.01, 10))
	res := mustRun(t, w, func(c *Comm) any {
		var payload any
		if c.Root() {
			payload = "hello"
		}
		return c.Bcast(0, 3, payload, 5)
	})
	for r, v := range res.Values {
		if v != "hello" {
			t.Errorf("rank %d got %v", r, v)
		}
	}
}

func TestBcastRootPaysLinearCost(t *testing.T) {
	// Linear broadcast: the root sends P-1 messages back to back, so its
	// COM is (P-1) * transfer.
	p := 5
	w := NewWorld(homoNet(t, p, 0.01, 10))
	const bytes = 125000 // 1 Mbit -> 10 ms per transfer
	res := mustRun(t, w, func(c *Comm) any {
		c.Bcast(0, 3, nil, bytes)
		return nil
	})
	want := float64(p-1) * 0.010
	if got := res.Clocks[0].Com; math.Abs(got-want) > 1e-12 {
		t.Errorf("root COM = %v, want %v", got, want)
	}
	// Later ranks receive later: the k-th destination's arrival is k
	// transfers in.
	for k := 1; k < p; k++ {
		want := float64(k) * 0.010
		if got := res.Clocks[k].Now; math.Abs(got-want) > 1e-12 {
			t.Errorf("rank %d finished at %v, want %v", k, got, want)
		}
	}
}

func TestGatherCollectsInRankOrder(t *testing.T) {
	w := NewWorld(homoNet(t, 4, 0.01, 10))
	res := mustRun(t, w, func(c *Comm) any {
		vals := GatherAs(c, 0, 4, c.Rank()*c.Rank(), 4)
		if c.Root() {
			return vals
		}
		return nil
	})
	got := res.Values[0].([]int)
	want := []int{0, 1, 4, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("gather = %v, want %v", got, want)
		}
	}
	for r := 1; r < 4; r++ {
		if res.Values[r] != nil {
			t.Errorf("non-root rank %d returned %v", r, res.Values[r])
		}
	}
}

func TestReduceFloat64Max(t *testing.T) {
	w := NewWorld(homoNet(t, 6, 0.01, 10))
	res := mustRun(t, w, func(c *Comm) any {
		return c.ReduceFloat64(0, 2, float64(c.Rank()%4), math.Max)
	})
	if got := res.Values[0].(float64); got != 3 {
		t.Errorf("reduce max = %v, want 3", got)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	// Rank 2 computes for 2 s before the barrier; everyone must leave the
	// barrier no earlier than rank 2 reached it.
	w := NewWorld(homoNet(t, 4, 0.01, 1))
	res := mustRun(t, w, func(c *Comm) any {
		if c.Rank() == 2 {
			c.Compute(200e6, vtime.Par) // 2 s
		}
		c.Barrier(11)
		return c.Clock().Now()
	})
	for r, v := range res.Values {
		if v.(float64) < 2 {
			t.Errorf("rank %d left the barrier at %v, before the slowest rank arrived", r, v)
		}
	}
}

func TestDeterministicTimings(t *testing.T) {
	// The same program on the same platform must produce bit-identical
	// virtual clocks across repeated runs, regardless of host scheduling.
	run := func() []vtime.Snapshot {
		w := NewWorld(platform.FullyHeterogeneous())
		res := mustRun(t, w, func(c *Comm) any {
			c.Compute(float64(10e6*(c.Rank()+1)), vtime.Par)
			local := float64(c.Rank())
			sum := c.ReduceFloat64(0, 1, local, func(a, b float64) float64 { return a + b })
			c.Bcast(0, 2, sum, 8)
			c.Barrier(3)
			return nil
		})
		return res.Clocks
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d clocks differ across runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestHeterogeneousComputeSpeedDifference(t *testing.T) {
	// The same flop count must take proportionally longer on a slower
	// processor (p10, the UltraSparc at 0.0451, vs p3 at 0.0026).
	w := NewWorld(platform.FullyHeterogeneous())
	res := mustRun(t, w, func(c *Comm) any {
		c.Compute(100e6, vtime.Par)
		return nil
	})
	fast := res.Clocks[2].Now // p3
	slow := res.Clocks[9].Now // p10
	ratio := slow / fast
	want := 0.0451 / 0.0026
	if math.Abs(ratio-want) > 1e-9 {
		t.Errorf("slow/fast ratio = %v, want %v", ratio, want)
	}
}

func TestSelfSendIsFree(t *testing.T) {
	w := NewWorld(twoNode(t, 50))
	res := mustRun(t, w, func(c *Comm) any {
		if c.Rank() == 0 {
			c.Send(0, 1, 99, 1<<20)
			return RecvAs[int](c, 0, 1)
		}
		return nil
	})
	if res.Values[0] != 99 {
		t.Errorf("self message lost: %v", res.Values[0])
	}
	if res.Clocks[0].Com != 0 {
		t.Errorf("self send charged COM %v", res.Clocks[0].Com)
	}
}

func TestWallTimeAndBreakdown(t *testing.T) {
	w := NewWorld(twoNode(t, 10))
	res := mustRun(t, w, func(c *Comm) any {
		if c.Root() {
			c.Compute(50e6, vtime.Seq) // 0.5 s sequential at the master
			c.Send(1, 1, nil, 125000)
			c.Recv(1, 2)
		} else {
			c.Recv(0, 1)
			c.Compute(100e6, vtime.Par) // 2 s on the slow node
			c.Send(0, 2, nil, 125000)
		}
		return nil
	})
	com, seq, par := res.RootBreakdown()
	if math.Abs(seq-0.5) > 1e-9 {
		t.Errorf("SEQ = %v, want 0.5", seq)
	}
	if math.Abs(com-0.020) > 1e-9 {
		t.Errorf("COM = %v, want 0.020 (two transfers)", com)
	}
	if par < 2-1e-9 {
		t.Errorf("PAR = %v, want >= 2 (master waits for the worker)", par)
	}
	total := com + seq + par
	if math.Abs(total-res.Clocks[0].Now) > 1e-9 {
		t.Errorf("breakdown %v does not decompose the root time %v", total, res.Clocks[0].Now)
	}
	if res.WallTime() < res.Clocks[1].Now {
		t.Errorf("WallTime %v below worker finish %v", res.WallTime(), res.Clocks[1].Now)
	}
	pt := res.ProcTimes()
	if len(pt) != 2 || pt[0] != res.Clocks[0].Now {
		t.Errorf("ProcTimes = %v", pt)
	}
}

func TestMailboxOverflowPanics(t *testing.T) {
	w := NewWorld(twoNode(t, 1))
	_, err := w.Run(func(c *Comm) any {
		if c.Rank() == 0 {
			for i := 0; i <= mailboxCapacity; i++ {
				c.Send(1, 1, nil, 0)
			}
		}
		// Rank 1 exits without receiving; sends are eager so rank 0
		// overflows rather than blocking.
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Errorf("err = %v, want overflow", err)
	}
}

func TestRunResultRoot(t *testing.T) {
	w := NewWorld(twoNode(t, 1))
	res := mustRun(t, w, func(c *Comm) any { return c.Rank() + 100 })
	if res.Root() != 100 {
		t.Errorf("Root() = %v", res.Root())
	}
}

func TestScaleValidation(t *testing.T) {
	w := NewWorld(twoNode(t, 1))
	for _, bad := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetComputeScale(%v) did not panic", bad)
				}
			}()
			w.SetComputeScale(bad)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetDataScale(%v) did not panic", bad)
				}
			}()
			w.SetDataScale(bad)
		}()
	}
}

func TestComputeScaleMultipliesChargesOnly(t *testing.T) {
	net := twoNode(t, 10)
	w := NewWorld(net)
	w.SetComputeScale(5)
	res := mustRun(t, w, func(c *Comm) any {
		c.Compute(10e6, vtime.Par)      // scaled: 5 * 0.1s (rank 0)
		c.ComputeFixed(10e6, vtime.Seq) // fixed: 0.1s
		if c.DataScale() != 1 {
			t.Errorf("DataScale = %v, want 1", c.DataScale())
		}
		return nil
	})
	if got := res.Clocks[0].Par; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("scaled Par = %v, want 0.5", got)
	}
	if got := res.Clocks[0].Seq; math.Abs(got-0.1) > 1e-12 {
		t.Errorf("fixed Seq = %v, want 0.1", got)
	}
}

func TestWorldAccessors(t *testing.T) {
	net := twoNode(t, 1)
	w := NewWorld(net)
	if w.Network() != net {
		t.Error("Network() wrong")
	}
	w.SetDataScale(3)
	res := mustRun(t, w, func(c *Comm) any {
		if c.World() != w {
			t.Error("World() wrong")
		}
		return c.DataScale()
	})
	if res.Values[0] != 3.0 {
		t.Errorf("DataScale through Comm = %v", res.Values[0])
	}
}

// Property: any pattern of master-to-worker payloads is delivered intact
// and in order, for any world size and message count.
func TestQuickPayloadConservation(t *testing.T) {
	f := func(seed int64, pRaw, nRaw uint8) bool {
		p := 2 + int(pRaw)%6
		n := 1 + int(nRaw)%20
		w := NewWorld(homoNetQuick(p))
		res, err := w.Run(func(c *Comm) any {
			if c.Root() {
				for i := 0; i < n; i++ {
					for dst := 1; dst < c.Size(); dst++ {
						c.Send(dst, 7, [2]int64{seed, int64(i * dst)}, 16)
					}
				}
				return nil
			}
			var sum int64
			for i := 0; i < n; i++ {
				v := RecvAs[[2]int64](c, 0, 7)
				if v[0] != seed || v[1] != int64(i*c.Rank()) {
					return int64(-1)
				}
				sum += v[1]
			}
			return sum
		})
		if err != nil {
			return false
		}
		for r := 1; r < p; r++ {
			var want int64
			for i := 0; i < n; i++ {
				want += int64(i * r)
			}
			if res.Values[r] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// homoNetQuick builds a network without a *testing.T (for quick.Check
// closures).
func homoNetQuick(p int) *platform.Network {
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
	n, err := platform.New("quick", procs, links, 0)
	if err != nil {
		panic(err)
	}
	return n
}

// GatherAs gathers typed payloads at root; non-root ranks receive nil.
func GatherAs[T any](c *Comm, root, tag int, payload T, bytes int) []T {
	raw := c.Gather(root, tag, payload, bytes)
	if raw == nil {
		return nil
	}
	out := make([]T, len(raw))
	for i, v := range raw {
		tv, ok := v.(T)
		if !ok {
			panic(fmt.Sprintf("mpi: gather at rank %d: payload from %d is %T, not the requested type", c.rank, i, v))
		}
		out[i] = tv
	}
	return out
}

// Barrier synchronizes all ranks: everyone reaches the barrier before
// anyone leaves it. Implemented as a zero-byte gather at root followed by
// a zero-byte broadcast (messages still pay latency, as a real barrier
// would).
func (c *Comm) Barrier(tag int) {
	c.Gather(0, tag, nil, 0)
	c.Bcast(0, tag, nil, 0)
}

// ReduceFloat64 combines one float64 per rank at root: the fold is seeded
// with the root's own value, then op is applied over the remaining ranks
// in increasing rank order. Non-root ranks return 0.
func (c *Comm) ReduceFloat64(root, tag int, value float64, op func(a, b float64) float64) float64 {
	vals := GatherAs(c, root, tag, value, 8)
	if vals == nil {
		return 0
	}
	acc := vals[root]
	for r, v := range vals {
		if r != root {
			acc = op(acc, v)
		}
	}
	return acc
}
