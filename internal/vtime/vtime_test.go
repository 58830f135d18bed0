package vtime

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewClockValidation(t *testing.T) {
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewClock(%v) did not panic", bad)
				}
			}()
			NewClock(bad)
		}()
	}
}

// CycleTime reports the processor cycle-time in seconds per megaflop.
func (c *Clock) CycleTime() float64 { return c.cycleTime }

func TestNewClockFields(t *testing.T) {
	c := NewClock(0.0131)
	if got := c.CycleTime(); got != 0.0131 {
		t.Errorf("CycleTime = %v, want 0.0131", got)
	}
	if c.Now() != 0 {
		t.Errorf("fresh clock Now = %v, want 0", c.Now())
	}
	if c.Com() != 0 || c.Seq() != 0 || c.Par() != 0 {
		t.Errorf("fresh clock buckets COM %v SEQ %v PAR %v, want 0", c.Com(), c.Seq(), c.Par())
	}
}

func TestAddAccumulates(t *testing.T) {
	c := NewClock(1)
	c.Add(1.5, Com)
	c.Add(2.0, Seq)
	c.Add(0.5, Par)
	c.Add(1.0, Com)
	if got := c.Com(); got != 2.5 {
		t.Errorf("Com = %v, want 2.5", got)
	}
	if got := c.Seq(); got != 2.0 {
		t.Errorf("Seq = %v, want 2.0", got)
	}
	if got := c.Par(); got != 0.5 {
		t.Errorf("Par = %v, want 0.5", got)
	}
	if got := c.Now(); got != 5.0 {
		t.Errorf("Now = %v, want 5.0", got)
	}
}

func TestAddZeroIsNoop(t *testing.T) {
	c := NewClock(1)
	c.Add(0, Par)
	if c.Now() != 0 || c.Par() != 0 {
		t.Errorf("Add(0) changed clock: now=%v par=%v", c.Now(), c.Par())
	}
}

func TestAddPanicsOnInvalid(t *testing.T) {
	for _, bad := range []float64{-0.1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%v) did not panic", bad)
				}
			}()
			NewClock(1).Add(bad, Com)
		}()
	}
}

func TestAdvanceTo(t *testing.T) {
	c := NewClock(1)
	c.AdvanceTo(3, Par)
	if c.Now() != 3 || c.Par() != 3 {
		t.Fatalf("AdvanceTo(3): now=%v par=%v", c.Now(), c.Par())
	}
	// Moving to an earlier or equal time is a no-op.
	c.AdvanceTo(2, Par)
	c.AdvanceTo(3, Com)
	if c.Now() != 3 || c.Com() != 0 {
		t.Errorf("backwards AdvanceTo changed clock: now=%v com=%v", c.Now(), c.Com())
	}
	c.AdvanceTo(3.5, Com)
	if c.Now() != 3.5 || c.Com() != 0.5 {
		t.Errorf("AdvanceTo(3.5): now=%v com=%v", c.Now(), c.Com())
	}
}

func TestComputeUsesCycleTime(t *testing.T) {
	// 0.0131 seconds per megaflop, as the paper's homogeneous workstations.
	c := NewClock(0.0131)
	c.Compute(2e6, Par) // 2 megaflops
	want := 2 * 0.0131
	if got := c.Par(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Compute(2e6): Par = %v, want %v", got, want)
	}
}

func TestComputeSeqVsPar(t *testing.T) {
	c := NewClock(0.01)
	c.Compute(1e6, Seq)
	c.Compute(3e6, Par)
	if got, want := c.Seq(), 0.01; math.Abs(got-want) > 1e-12 {
		t.Errorf("Seq = %v, want %v", got, want)
	}
	if got, want := c.Par(), 0.03; math.Abs(got-want) > 1e-12 {
		t.Errorf("Par = %v, want %v", got, want)
	}
}

func TestComputePanicsOnInvalid(t *testing.T) {
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Compute(%v) did not panic", bad)
				}
			}()
			NewClock(1).Compute(bad, Par)
		}()
	}
}

func TestSnapshotTotalsEqualNow(t *testing.T) {
	c := NewClock(0.005)
	c.Add(1, Com)
	c.Compute(4e6, Seq)
	c.AdvanceTo(c.Now()+2, Par)
	s := c.Snapshot()
	if math.Abs(s.Total()-s.Now) > 1e-12 {
		t.Errorf("Snapshot Total %v != Now %v", s.Total(), s.Now)
	}
	if s.Com != 1 {
		t.Errorf("Snapshot Com = %v, want 1", s.Com)
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	c := NewClock(1)
	c.Add(1, Par)
	s := c.Snapshot()
	c.Add(5, Par)
	if s.Par != 1 {
		t.Errorf("snapshot mutated by later clock activity: Par = %v", s.Par)
	}
}

func TestCategoryString(t *testing.T) {
	cases := map[Category]string{Com: "COM", Seq: "SEQ", Par: "PAR", Category(9): "Category(9)"}
	for cat, want := range cases {
		if got := cat.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(cat), got, want)
		}
	}
}

// Property: for any sequence of non-negative durations, Now equals the sum
// of all buckets (time is conserved across categories).
func TestQuickTimeConservation(t *testing.T) {
	f := func(durs []float64, cats []uint8) bool {
		c := NewClock(0.01)
		n := len(durs)
		if len(cats) < n {
			n = len(cats)
		}
		for i := 0; i < n; i++ {
			d := math.Abs(durs[i])
			if math.IsNaN(d) || math.IsInf(d, 0) || d > 1e9 {
				d = 1
			}
			c.Add(d, Category(cats[i]%3))
		}
		return math.Abs(c.Now()-(c.Com()+c.Seq()+c.Par())) <= 1e-6*math.Max(1, c.Now())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: AdvanceTo is monotone — the clock never runs backwards.
func TestQuickAdvanceMonotone(t *testing.T) {
	f := func(targets []float64) bool {
		c := NewClock(1)
		prev := 0.0
		for _, raw := range targets {
			tgt := math.Abs(raw)
			if math.IsNaN(tgt) || math.IsInf(tgt, 0) || tgt > 1e12 {
				tgt = 1
			}
			c.AdvanceTo(tgt, Par)
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIdleAndBusy(t *testing.T) {
	c := NewClock(0.01)
	c.Compute(100e6, Par) // 1 s busy
	c.Add(0.5, Idle)      // waiting
	c.Add(0.25, Com)
	if got := c.Idle(); got != 0.5 {
		t.Errorf("Idle = %v, want 0.5", got)
	}
	if got, want := c.Busy(), 1.25; math.Abs(got-want) > 1e-12 {
		t.Errorf("Busy = %v, want %v", got, want)
	}
	s := c.Snapshot()
	if s.Idle != 0.5 || math.Abs(s.Busy()-1.25) > 1e-12 {
		t.Errorf("snapshot idle/busy wrong: %+v", s)
	}
	if math.Abs(s.Total()-s.Now) > 1e-12 {
		t.Errorf("four-bucket Total %v != Now %v", s.Total(), s.Now)
	}
}

func TestIdleCategoryString(t *testing.T) {
	if Idle.String() != "IDLE" {
		t.Errorf("Idle label = %q", Idle.String())
	}
}

// ComputeDegraded multiplies the nominal flop cost by the factor and
// rejects non-positive factors.
func TestComputeDegraded(t *testing.T) {
	c := NewClock(0.01)
	c.Compute(2e6, Par)
	nominal := c.Now()
	d := NewClock(0.01)
	d.ComputeDegraded(2e6, 3, Par)
	if got, want := d.Now(), 3*nominal; got != want {
		t.Fatalf("degraded time = %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero factor did not panic")
		}
	}()
	d.ComputeDegraded(1e6, 0, Par)
}

// Com reports accumulated communication time.
func (c *Clock) Com() float64 { return c.buckets[Com] }

// Seq reports accumulated root-only sequential computation time.
func (c *Clock) Seq() float64 { return c.buckets[Seq] }

// Par reports accumulated parallel computation time (busy only).
func (c *Clock) Par() float64 { return c.buckets[Par] }

// Idle reports accumulated waiting time.
func (c *Clock) Idle() float64 { return c.buckets[Idle] }

// Compute charges the cost of executing the given number of floating-point
// operations on this processor: flops/1e6 * cycleTime seconds, in category
// cat (Seq for root-only phases, Par for concurrent phases).
func (c *Clock) Compute(flops float64, cat Category) {
	c.ComputeDegraded(flops, 1, cat)
}

// Total returns Com+Seq+Par+Idle, which equals Now for a clock advanced
// only through Add/AdvanceTo/Compute.
func (s Snapshot) Total() float64 { return s.Com + s.Seq + s.Par + s.Idle }
