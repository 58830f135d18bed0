package platform

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	good := []Processor{
		{ID: 1, CycleTime: 0.01, MemoryMB: 512},
		{ID: 2, CycleTime: 0.02, MemoryMB: 512},
	}
	cases := []struct {
		name    string
		procs   []Processor
		links   [][]float64
		latency float64
	}{
		{"no processors", nil, nil, 0},
		{"wrong rows", good, [][]float64{{0, 1}}, 0},
		{"wrong cols", good, [][]float64{{0, 1}, {1}}, 0},
		{"nonzero diagonal", good, [][]float64{{1, 1}, {1, 0}}, 0},
		{"asymmetric", good, [][]float64{{0, 1}, {2, 0}}, 0},
		{"non-positive link", good, [][]float64{{0, 0}, {0, 0}}, 0},
		{"negative latency", good, [][]float64{{0, 1}, {1, 0}}, -1},
		{"bad cycle-time", []Processor{{CycleTime: 0, MemoryMB: 1}, {CycleTime: 1, MemoryMB: 1}}, [][]float64{{0, 1}, {1, 0}}, 0},
		{"bad memory", []Processor{{CycleTime: 1, MemoryMB: 0}, {CycleTime: 1, MemoryMB: 1}}, [][]float64{{0, 1}, {1, 0}}, 0},
	}
	for _, c := range cases {
		if _, err := New(c.name, c.procs, c.links, c.latency); err == nil {
			t.Errorf("New(%s): expected error", c.name)
		}
	}
	if _, err := New("ok", good, [][]float64{{0, 1}, {1, 0}}, 0.001); err != nil {
		t.Errorf("New(valid) failed: %v", err)
	}
}

func TestHeterogeneousProcessorsMatchTable1(t *testing.T) {
	procs := HeterogeneousProcessors()
	if len(procs) != 16 {
		t.Fatalf("got %d processors, want 16", len(procs))
	}
	// Spot-check the distinguished machines of Table 1.
	checks := []struct {
		idx   int
		w     float64
		memMB int
		cache int
		seg   int
	}{
		{0, 0.0058, 2048, 1024, 0},  // p1 Pentium 4
		{1, 0.0102, 1024, 512, 0},   // p2 Xeon
		{2, 0.0026, 7748, 512, 0},   // p3 Athlon, the fastest
		{3, 0.0072, 1024, 1024, 0},  // p4 Xeon
		{9, 0.0451, 512, 2048, 2},   // p10 UltraSparc, the slowest
		{10, 0.0131, 2048, 1024, 3}, // p11 Athlon
		{15, 0.0131, 2048, 1024, 3}, // p16 Athlon
	}
	for _, c := range checks {
		p := procs[c.idx]
		if p.CycleTime != c.w || p.MemoryMB != c.memMB || p.CacheKB != c.cache || p.Segment != c.seg {
			t.Errorf("p%d = %+v, want w=%v mem=%d cache=%d seg=%d",
				c.idx+1, p, c.w, c.memMB, c.cache, c.seg)
		}
	}
	// IDs are 1-based and sequential.
	for i, p := range procs {
		if p.ID != i+1 {
			t.Errorf("processor %d has ID %d", i, p.ID)
		}
	}
}

func TestSegmentAssignment(t *testing.T) {
	procs := HeterogeneousProcessors()
	wantSeg := []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 3, 3, 3, 3, 3, 3}
	for i, p := range procs {
		if p.Segment != wantSeg[i] {
			t.Errorf("p%d segment = %d, want %d", i+1, p.Segment, wantSeg[i])
		}
	}
}

func TestFullyHeterogeneousLinksMatchTable2(t *testing.T) {
	n := FullyHeterogeneous()
	cases := []struct {
		i, j int
		want float64
	}{
		{0, 1, 19.26},   // within s1
		{4, 7, 17.65},   // within s2
		{8, 9, 16.38},   // within s3
		{10, 15, 14.05}, // within s4
		{0, 4, 48.31},   // s1-s2
		{0, 8, 96.62},   // s1-s3
		{0, 10, 154.76}, // s1-s4
		{4, 9, 48.31},   // s2-s3
		{5, 12, 106.45}, // s2-s4
		{9, 11, 58.14},  // s3-s4
	}
	for _, c := range cases {
		if got := n.LinkMS(c.i, c.j); got != c.want {
			t.Errorf("link p%d-p%d = %v, want %v", c.i+1, c.j+1, got, c.want)
		}
		if got := n.LinkMS(c.j, c.i); got != c.want {
			t.Errorf("link p%d-p%d (reverse) = %v, want %v", c.j+1, c.i+1, got, c.want)
		}
	}
}

func TestFullyHomogeneous(t *testing.T) {
	n := FullyHomogeneous()
	if n.Size() != 16 {
		t.Fatalf("size = %d, want 16", n.Size())
	}
	for _, p := range n.Procs {
		if p.CycleTime != HomogeneousCycleTime {
			t.Errorf("processor %d cycle-time %v, want %v", p.ID, p.CycleTime, HomogeneousCycleTime)
		}
	}
	for i := 0; i < n.Size(); i++ {
		for j := 0; j < n.Size(); j++ {
			want := HomogeneousLinkMS
			if i == j {
				want = 0
			}
			if got := n.LinkMS(i, j); got != want {
				t.Fatalf("link %d-%d = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestPartialNetworks(t *testing.T) {
	ph := PartiallyHeterogeneous()
	if ph.Procs[9].CycleTime != 0.0451 {
		t.Errorf("partially heterogeneous p10 cycle-time = %v, want UltraSparc 0.0451", ph.Procs[9].CycleTime)
	}
	if got := ph.LinkMS(0, 10); got != HomogeneousLinkMS {
		t.Errorf("partially heterogeneous link = %v, want homogeneous %v", got, HomogeneousLinkMS)
	}
	pm := PartiallyHomogeneous()
	if pm.Procs[9].CycleTime != HomogeneousCycleTime {
		t.Errorf("partially homogeneous p10 cycle-time = %v, want %v", pm.Procs[9].CycleTime, HomogeneousCycleTime)
	}
	if got := pm.LinkMS(0, 10); got != 154.76 {
		t.Errorf("partially homogeneous s1-s4 link = %v, want 154.76", got)
	}
}

func TestUMDNetworksOrder(t *testing.T) {
	nets := UMDNetworks()
	want := []string{"fully-heterogeneous", "fully-homogeneous", "partially-heterogeneous", "partially-homogeneous"}
	if len(nets) != len(want) {
		t.Fatalf("got %d networks", len(nets))
	}
	for i, n := range nets {
		if n.Name != want[i] {
			t.Errorf("network %d = %q, want %q", i, n.Name, want[i])
		}
		if n.Size() != 16 {
			t.Errorf("network %q has %d processors, want 16", n.Name, n.Size())
		}
	}
}

func TestTransferTime(t *testing.T) {
	n := FullyHomogeneous()
	// One megabit = 125000 bytes at 26.64 ms plus latency.
	got := n.TransferTime(125000, 0, 1)
	want := defaultLatencySec + 26.64e-3
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("TransferTime(1 Mbit) = %v, want %v", got, want)
	}
	if n.TransferTime(1<<20, 3, 3) != 0 {
		t.Error("self transfer should be free")
	}
}

func TestTransferTimeScalesWithLink(t *testing.T) {
	n := FullyHeterogeneous()
	fast := n.TransferTime(1e6, 10, 11) // within s4: 14.05
	slow := n.TransferTime(1e6, 0, 10)  // s1-s4: 154.76
	if slow <= fast {
		t.Errorf("inter-segment transfer (%v) not slower than intra-segment (%v)", slow, fast)
	}
	ratio := (slow - defaultLatencySec) / (fast - defaultLatencySec)
	want := 154.76 / 14.05
	if math.Abs(ratio-want) > 1e-9 {
		t.Errorf("capacity ratio = %v, want %v", ratio, want)
	}
}

func TestAggregateSpeed(t *testing.T) {
	var want float64
	for _, p := range HeterogeneousProcessors() {
		want += 1 / p.CycleTime
	}
	if got := FullyHeterogeneous().AggregateSpeed(); math.Abs(got-want) > 1e-9 {
		t.Errorf("AggregateSpeed = %v, want %v", got, want)
	}
	homo := FullyHomogeneous().AggregateSpeed()
	if math.Abs(homo-16/HomogeneousCycleTime) > 1e-9 {
		t.Errorf("homogeneous AggregateSpeed = %v", homo)
	}
}

func TestAverageLinkMS(t *testing.T) {
	if got := FullyHomogeneous().AverageLinkMS(); math.Abs(got-HomogeneousLinkMS) > 1e-12 {
		t.Errorf("homogeneous AverageLinkMS = %v, want %v", got, HomogeneousLinkMS)
	}
	// Single-node network has no links.
	th, err := Thunderhead(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := th.AverageLinkMS(); got != 0 {
		t.Errorf("1-node AverageLinkMS = %v, want 0", got)
	}
}

func TestEquivalenceFramework(t *testing.T) {
	// The fully heterogeneous and fully homogeneous networks are the
	// paper's canonical "approximately equivalent" pair: same size, and
	// aggregate characteristics within a modest factor.
	eq := Equivalent(FullyHeterogeneous(), FullyHomogeneous())
	if !eq.SameSize {
		t.Error("networks should have the same size")
	}
	if eq.SpeedRatio < 1 || eq.SpeedRatio > 2 {
		t.Errorf("speed ratio %v outside the plausible band", eq.SpeedRatio)
	}
	if eq.LinkRatio < 1 || eq.LinkRatio > 3 {
		t.Errorf("link ratio %v outside the plausible band", eq.LinkRatio)
	}
	// A network is exactly equivalent to itself.
	self := Equivalent(FullyHomogeneous(), FullyHomogeneous())
	if !self.Close(1e-12) {
		t.Errorf("self equivalence not close: %+v", self)
	}
	if Equivalent(FullyHeterogeneous(), FullyHomogeneous()).Close(0.01) {
		t.Error("heterogeneous/homogeneous pair should not be equivalent at 1% tolerance")
	}
}

func TestThunderhead(t *testing.T) {
	n, err := Thunderhead(256)
	if err != nil {
		t.Fatal(err)
	}
	if n.Size() != 256 {
		t.Errorf("size = %d", n.Size())
	}
	for _, p := range n.Procs {
		if p.CycleTime != ThunderheadCycleTime || p.MemoryMB != ThunderheadMemoryMB {
			t.Fatalf("node %d = %+v", p.ID, p)
		}
	}
	// Myrinet should be much faster than the workstation networks.
	if n.LinkMS(0, 1) >= HomogeneousLinkMS {
		t.Errorf("Myrinet link %v not faster than Ethernet %v", n.LinkMS(0, 1), HomogeneousLinkMS)
	}
}

func TestThunderheadNodeCountErrors(t *testing.T) {
	for _, p := range []int{0, -1, 257, 1000} {
		_, err := Thunderhead(p)
		if err == nil {
			t.Errorf("Thunderhead(%d): expected error", p)
			continue
		}
		var nce *NodeCountError
		if !errorsAs(err, &nce) {
			t.Errorf("Thunderhead(%d): error type %T", p, err)
		} else if nce.Requested != p {
			t.Errorf("Thunderhead(%d): error reports %d", p, nce.Requested)
		}
		if !strings.Contains(err.Error(), "thunderhead") {
			t.Errorf("error string %q lacks context", err.Error())
		}
	}
}

// errorsAs is a tiny local wrapper to keep the import list tidy.
func errorsAs(err error, target any) bool {
	nce, ok := target.(**NodeCountError)
	if !ok {
		return false
	}
	e, ok := err.(*NodeCountError)
	if ok {
		*nce = e
	}
	return ok
}

func TestProcessorSpeed(t *testing.T) {
	p := Processor{CycleTime: 0.0026}
	if got := p.Speed(); math.Abs(got-1/0.0026) > 1e-9 {
		t.Errorf("Speed = %v", got)
	}
}

// Property: transfer time is symmetric and monotone in message size for
// every pair in the fully heterogeneous network.
func TestQuickTransferSymmetricMonotone(t *testing.T) {
	n := FullyHeterogeneous()
	f := func(i, j uint8, sz uint16) bool {
		a, b := int(i)%n.Size(), int(j)%n.Size()
		small := n.TransferTime(int(sz), a, b)
		big := n.TransferTime(int(sz)+1000, a, b)
		if a == b {
			return small == 0 && big == 0
		}
		return small == n.TransferTime(int(sz), b, a) && big > small
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every pair of distinct UMD processors has a positive,
// symmetric link in every UMD network.
func TestQuickUMDLinkMatrixWellFormed(t *testing.T) {
	for _, net := range UMDNetworks() {
		for i := 0; i < net.Size(); i++ {
			for j := 0; j < net.Size(); j++ {
				ms := net.LinkMS(i, j)
				switch {
				case i == j && ms != 0:
					t.Fatalf("%s: self-link %d nonzero", net.Name, i)
				case i != j && ms <= 0:
					t.Fatalf("%s: link %d-%d non-positive", net.Name, i, j)
				case ms != net.LinkMS(j, i):
					t.Fatalf("%s: link %d-%d asymmetric", net.Name, i, j)
				}
			}
		}
	}
}

// Without drops one processor, shifts higher ranks down, preserves the
// surviving links, and refuses out-of-range or last-processor removals.
func TestWithout(t *testing.T) {
	n := FullyHeterogeneous()
	d, err := n.Without(3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != n.Size()-1 {
		t.Fatalf("degraded size = %d, want %d", d.Size(), n.Size()-1)
	}
	if !strings.HasSuffix(d.Name, "-degraded") {
		t.Fatalf("degraded name = %q", d.Name)
	}
	// Rank 4 of the original is rank 3 of the degraded network.
	if d.Procs[3].ID != n.Procs[4].ID {
		t.Fatalf("rank 3 after removal has ID %d, want %d", d.Procs[3].ID, n.Procs[4].ID)
	}
	if got, want := d.LinkMS(0, 3), n.LinkMS(0, 4); got != want {
		t.Fatalf("surviving link = %v, want %v", got, want)
	}
	// Removing again only appends one -degraded suffix.
	dd, err := d.Without(0)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(dd.Name, "-degraded") != 1 {
		t.Fatalf("name accumulated suffixes: %q", dd.Name)
	}
	if _, err := n.Without(-1); err == nil {
		t.Fatal("negative rank accepted")
	}
	if _, err := n.Without(n.Size()); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	single, err := New("one", []Processor{{ID: 1, CycleTime: 0.01, MemoryMB: 64}}, [][]float64{{0}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.Without(0); err == nil {
		t.Fatal("removed the last processor")
	}
}

// AggregateSpeed returns the sum of processor speeds Σ 1/w_i in megaflops
// per second; the ideal runtime of a perfectly balanced compute-bound
// workload is W/AggregateSpeed.
func (n *Network) AggregateSpeed() float64 {
	var s float64
	for _, p := range n.Procs {
		s += p.Speed()
	}
	return s
}

// Equivalence quantifies how close two networks are under the three
// principles of the Lastovetsky-Reddy evaluation framework quoted in
// Section 3.1 of the paper.
type Equivalence struct {
	// SameSize reports whether both networks have the same processor count.
	SameSize bool
	// SpeedRatio is the ratio of mean processor speeds (a/b); 1 means the
	// homogeneous environment matches the average heterogeneous speed.
	SpeedRatio float64
	// LinkRatio is the ratio of average link capacities (a/b).
	LinkRatio float64
}

// Equivalent compares two networks under the evaluation framework.
func Equivalent(a, b *Network) Equivalence {
	meanSpeed := func(n *Network) float64 { return n.AggregateSpeed() / float64(n.Size()) }
	eq := Equivalence{SameSize: a.Size() == b.Size()}
	if mb := meanSpeed(b); mb > 0 {
		eq.SpeedRatio = meanSpeed(a) / mb
	}
	if lb := b.AverageLinkMS(); lb > 0 {
		eq.LinkRatio = a.AverageLinkMS() / lb
	}
	return eq
}

// Close reports whether the equivalence ratios are within the given
// relative tolerance of 1.
func (e Equivalence) Close(tol float64) bool {
	return e.SameSize &&
		math.Abs(e.SpeedRatio-1) <= tol &&
		math.Abs(e.LinkRatio-1) <= tol
}
