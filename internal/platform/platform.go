// Package platform describes the parallel computing platforms of Plaza
// (CLUSTER 2006): the four networks of workstations at University of
// Maryland (Tables 1 and 2 of the paper) and the Thunderhead Beowulf
// cluster at NASA Goddard Space Flight Center.
//
// A Network couples a list of Processors (cycle-time, memory, cache) with a
// symmetric matrix of link capacities, expressed — exactly as in Table 2 —
// as the time in milliseconds to transfer a one-megabit message between a
// processor pair. The paper's evaluation framework (Lastovetsky & Reddy,
// Parallel Computing 30, 2004) compares a heterogeneous network against an
// "equivalent" homogeneous one; the package tests check the UMD pair
// under that framework's three principles.
package platform

import (
	"errors"
	"fmt"
	"strings"
)

// Processor describes one computing resource, following Table 1.
type Processor struct {
	// ID is the 1-based processor number p_i used by the paper.
	ID int
	// Name is a human-readable description (architecture / OS).
	Name string
	// CycleTime is the relative cycle-time w_i in seconds per megaflop.
	CycleTime float64
	// MemoryMB is the main memory in megabytes, used by the workload
	// estimation algorithm as the upper bound on local storage.
	MemoryMB int
	// CacheKB is the cache size in kilobytes (reported for completeness).
	CacheKB int
	// Segment is the communication segment s_j the processor is attached
	// to (0-based). Processors on the same segment enjoy the fast
	// intra-segment link capacity.
	Segment int
}

// Speed returns the relative speed 1/w_i of the processor in megaflops per
// second.
func (p Processor) Speed() float64 { return 1 / p.CycleTime }

// Network is a complete graph G=(P,E) of processors and communication
// links, as in Section 2 of the paper.
type Network struct {
	// Name identifies the platform (for example "fully-heterogeneous").
	Name string
	// Procs lists the processors; rank r of an MPI-style run maps to
	// Procs[r], and rank 0 acts as the master.
	Procs []Processor
	// linkMS[i][j] is the time in milliseconds to transfer a one-megabit
	// message from Procs[i] to Procs[j]. Symmetric with zero diagonal.
	linkMS [][]float64
	// LatencySec is a fixed per-message startup latency in seconds.
	LatencySec float64
}

// ErrBadNetwork reports an inconsistent network description.
var ErrBadNetwork = errors.New("platform: inconsistent network description")

// New assembles a network after validating that the link matrix is square,
// matches the processor count, is symmetric and has a zero diagonal.
func New(name string, procs []Processor, linkMS [][]float64, latencySec float64) (*Network, error) {
	n := len(procs)
	if n == 0 {
		return nil, fmt.Errorf("%w: no processors", ErrBadNetwork)
	}
	if len(linkMS) != n {
		return nil, fmt.Errorf("%w: link matrix has %d rows for %d processors", ErrBadNetwork, len(linkMS), n)
	}
	for i := range linkMS {
		if len(linkMS[i]) != n {
			return nil, fmt.Errorf("%w: link matrix row %d has %d columns for %d processors", ErrBadNetwork, i, len(linkMS[i]), n)
		}
		if linkMS[i][i] != 0 {
			return nil, fmt.Errorf("%w: nonzero self-link for processor %d", ErrBadNetwork, i)
		}
		for j := range linkMS[i] {
			if i != j && linkMS[i][j] <= 0 {
				return nil, fmt.Errorf("%w: non-positive capacity between %d and %d", ErrBadNetwork, i, j)
			}
			if linkMS[i][j] != linkMS[j][i] {
				return nil, fmt.Errorf("%w: asymmetric capacity between %d and %d", ErrBadNetwork, i, j)
			}
		}
	}
	for i, p := range procs {
		if p.CycleTime <= 0 {
			return nil, fmt.Errorf("%w: processor %d has non-positive cycle-time", ErrBadNetwork, i)
		}
		if p.MemoryMB <= 0 {
			return nil, fmt.Errorf("%w: processor %d has non-positive memory", ErrBadNetwork, i)
		}
	}
	if latencySec < 0 {
		return nil, fmt.Errorf("%w: negative latency", ErrBadNetwork)
	}
	return &Network{Name: name, Procs: procs, linkMS: linkMS, LatencySec: latencySec}, nil
}

// Size returns the number of processors P.
func (n *Network) Size() int { return len(n.Procs) }

// Without returns a copy of the network with processor rank removed:
// the degraded platform a run falls back to after that processor dies.
// Higher ranks shift down by one; links between the survivors are
// unchanged. The name gains a "-degraded" suffix (once).
func (n *Network) Without(rank int) (*Network, error) {
	p := n.Size()
	if rank < 0 || rank >= p {
		return nil, fmt.Errorf("%w: cannot remove rank %d from a %d-processor network", ErrBadNetwork, rank, p)
	}
	if p == 1 {
		return nil, fmt.Errorf("%w: cannot remove the last processor", ErrBadNetwork)
	}
	procs := make([]Processor, 0, p-1)
	for i, proc := range n.Procs {
		if i != rank {
			procs = append(procs, proc)
		}
	}
	links := make([][]float64, 0, p-1)
	for i := 0; i < p; i++ {
		if i == rank {
			continue
		}
		row := make([]float64, 0, p-1)
		for j := 0; j < p; j++ {
			if j != rank {
				row = append(row, n.linkMS[i][j])
			}
		}
		links = append(links, row)
	}
	name := n.Name
	if !strings.HasSuffix(name, "-degraded") {
		name += "-degraded"
	}
	return New(name, procs, links, n.LatencySec)
}

// LinkMS returns the Table 2 capacity (milliseconds per megabit) of the
// link between processors i and j.
func (n *Network) LinkMS(i, j int) float64 { return n.linkMS[i][j] }

// BulkPipelineFactor models how much faster bulk transfers move than the
// one-megabit-message benchmark of Table 2. The table's figure is
// dominated by per-message software overhead and store-and-forward hops;
// once a large transfer is streaming, the marginal cost per megabit is an
// order of magnitude lower. (Without this, the paper's own numbers would
// be inconsistent: scattering the ~1 GB scene at 26.64 ms/Mbit would take
// ~200 s, yet Table 6 reports 6-17 s of total communication.)
const BulkPipelineFactor = 10

// TransferTime returns the virtual time in seconds to move a message of
// the given size in bytes from processor i to processor j, including the
// fixed per-message latency. The first megabit is charged at the Table 2
// capacity; the remainder streams at BulkPipelineFactor times that rate.
// Transfers between a processor and itself are free (local memory copies
// are charged as computation, not communication).
func (n *Network) TransferTime(bytes int, i, j int) float64 {
	if i == j {
		return 0
	}
	megabits := float64(bytes) * 8 / 1e6
	perMbit := n.linkMS[i][j] / 1e3
	if megabits <= 1 {
		return n.LatencySec + megabits*perMbit
	}
	return n.LatencySec + perMbit + (megabits-1)*perMbit/BulkPipelineFactor
}

// CycleTimes returns the w_i of every processor, in rank order.
func (n *Network) CycleTimes() []float64 {
	w := make([]float64, len(n.Procs))
	for i, p := range n.Procs {
		w[i] = p.CycleTime
	}
	return w
}

// AverageLinkMS returns the mean capacity over all ordered pairs i != j,
// the "aggregate communication characteristic" used by the equivalence
// framework.
func (n *Network) AverageLinkMS() float64 {
	p := len(n.Procs)
	if p < 2 {
		return 0
	}
	var sum float64
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i != j {
				sum += n.linkMS[i][j]
			}
		}
	}
	return sum / float64(p*(p-1))
}
