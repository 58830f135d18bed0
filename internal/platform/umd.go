package platform

import (
	"fmt"
	"strings"
)

// This file encodes the concrete evaluation platforms of the paper:
// the four networks of workstations distributed among different locations
// at University of Maryland (Tables 1 and 2), and NASA Goddard's
// Thunderhead Beowulf cluster.

// defaultLatencySec is the fixed per-message startup latency assumed for
// the workstation networks. The paper does not report a latency figure;
// a fraction of a millisecond is typical of the 2006-era Ethernet switches
// the capacities in Table 2 imply.
const defaultLatencySec = 0.5e-3

// Segment-pair capacities from Table 2, in milliseconds to transfer a
// one-megabit message. segCap[a][b] is the capacity between a processor on
// segment a and one on segment b.
var segCap = [4][4]float64{
	{19.26, 48.31, 96.62, 154.76},
	{48.31, 17.65, 48.31, 106.45},
	{96.62, 48.31, 16.38, 58.14},
	{154.76, 106.45, 58.14, 14.05},
}

// HomogeneousLinkMS is the capacity of every link in the fully homogeneous
// network (Section 3.1).
const HomogeneousLinkMS = 26.64

// HomogeneousCycleTime is the cycle-time of the identical Linux
// workstations in the homogeneous networks (seconds per megaflop).
const HomogeneousCycleTime = 0.0131

// HeterogeneousProcessors returns the 16 workstations of Table 1, in
// processor order p_1..p_16, attached to their communication segments.
func HeterogeneousProcessors() []Processor {
	mk := func(id int, name string, w float64, memMB, cacheKB, seg int) Processor {
		return Processor{ID: id, Name: name, CycleTime: w, MemoryMB: memMB, CacheKB: cacheKB, Segment: seg}
	}
	procs := []Processor{
		mk(1, "FreeBSD i386 Intel Pentium 4", 0.0058, 2048, 1024, 0),
		mk(2, "Linux Intel Xeon", 0.0102, 1024, 512, 0),
		mk(3, "Linux AMD Athlon", 0.0026, 7748, 512, 0),
		mk(4, "Linux Intel Xeon", 0.0072, 1024, 1024, 0),
		mk(5, "Linux Intel Xeon", 0.0102, 1024, 512, 1),
		mk(6, "Linux Intel Xeon", 0.0072, 1024, 1024, 1),
		mk(7, "Linux Intel Xeon", 0.0072, 1024, 1024, 1),
		mk(8, "Linux Intel Xeon", 0.0102, 1024, 512, 1),
		mk(9, "Linux Intel Xeon", 0.0072, 1024, 1024, 2),
		mk(10, "SunOS SUNW UltraSparc-5", 0.0451, 512, 2048, 2),
	}
	for i := 11; i <= 16; i++ {
		procs = append(procs, mk(i, "Linux AMD Athlon", 0.0131, 2048, 1024, 3))
	}
	return procs
}

// HomogeneousProcessors returns 16 identical Linux workstations with the
// cycle-time used by the paper's homogeneous networks. Memory and cache
// match the p_11..p_16 machines of Table 1.
func HomogeneousProcessors() []Processor {
	procs := make([]Processor, 16)
	for i := range procs {
		procs[i] = Processor{
			ID:        i + 1,
			Name:      "Linux AMD Athlon",
			CycleTime: HomogeneousCycleTime,
			MemoryMB:  2048,
			CacheKB:   1024,
			Segment:   0,
		}
	}
	return procs
}

// heterogeneousLinks builds the Table 2 capacity matrix for the given
// processors from their segment assignments.
func heterogeneousLinks(procs []Processor) [][]float64 {
	n := len(procs)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			if i == j {
				continue
			}
			m[i][j] = segCap[procs[i].Segment][procs[j].Segment]
		}
	}
	return m
}

// uniformLinks builds a capacity matrix where every link has the same
// capacity.
func uniformLinks(n int, capMS float64) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			if i != j {
				m[i][j] = capMS
			}
		}
	}
	return m
}

func mustNew(name string, procs []Processor, links [][]float64, latency float64) *Network {
	n, err := New(name, procs, links, latency)
	if err != nil {
		panic(err) // static platform descriptions are validated by tests
	}
	return n
}

// FullyHeterogeneous returns the fully heterogeneous network: the 16
// workstations of Table 1 interconnected by the four communication
// segments of Table 2.
func FullyHeterogeneous() *Network {
	procs := HeterogeneousProcessors()
	return mustNew("fully-heterogeneous", procs, heterogeneousLinks(procs), defaultLatencySec)
}

// FullyHomogeneous returns the fully homogeneous network: 16 identical
// workstations interconnected by links of capacity 26.64 ms/megabit.
func FullyHomogeneous() *Network {
	procs := HomogeneousProcessors()
	return mustNew("fully-homogeneous", procs, uniformLinks(len(procs), HomogeneousLinkMS), defaultLatencySec)
}

// PartiallyHeterogeneous returns the heterogeneous workstations of Table 1
// interconnected by the homogeneous communication network.
func PartiallyHeterogeneous() *Network {
	procs := HeterogeneousProcessors()
	return mustNew("partially-heterogeneous", procs, uniformLinks(len(procs), HomogeneousLinkMS), defaultLatencySec)
}

// PartiallyHomogeneous returns 16 identical workstations interconnected by
// the heterogeneous network of Table 2 (segment structure taken from the
// heterogeneous platform).
func PartiallyHomogeneous() *Network {
	procs := HomogeneousProcessors()
	// Give the identical processors the heterogeneous segment layout so
	// the Table 2 capacities apply.
	het := HeterogeneousProcessors()
	for i := range procs {
		procs[i].Segment = het[i].Segment
	}
	return mustNew("partially-homogeneous", procs, heterogeneousLinks(procs), defaultLatencySec)
}

// UMDNetworks returns the four approximately equivalent networks of
// Section 3.1 in the order the paper's tables report them.
func UMDNetworks() []*Network {
	return []*Network{
		FullyHeterogeneous(),
		FullyHomogeneous(),
		PartiallyHeterogeneous(),
		PartiallyHomogeneous(),
	}
}

// ByName resolves the short, case-insensitive platform name that job
// requests, command lines and simulation scenarios all spell the same way:
// fully-het, fully-homo, part-het, part-homo, or thunderhead with cpus
// nodes. It is the one table of those spellings.
func ByName(name string, cpus int) (*Network, error) {
	switch strings.ToLower(name) {
	case "fully-het":
		return FullyHeterogeneous(), nil
	case "fully-homo":
		return FullyHomogeneous(), nil
	case "part-het":
		return PartiallyHeterogeneous(), nil
	case "part-homo":
		return PartiallyHomogeneous(), nil
	case "thunderhead":
		return Thunderhead(cpus)
	}
	return nil, fmt.Errorf("unknown network %q (want fully-het, fully-homo, part-het, part-homo or thunderhead)", name)
}

// Thunderhead parameters. The cluster is composed of 256 dual 2.4 GHz
// Intel Xeon nodes with 1 GB of memory and 512 KB cache, interconnected
// via 2 GHz optical fibre Myrinet. We model one rank per node with the
// Xeon cycle-time class of Table 1, and the Myrinet link at its nominal
// 2 Gbit/s: 0.5 ms to transfer one megabit.
const (
	ThunderheadCycleTime = 0.0072
	ThunderheadLinkMS    = 0.5
	ThunderheadMemoryMB  = 1024
	ThunderheadCacheKB   = 512
	ThunderheadMaxNodes  = 256
)

// Thunderhead returns a model of p nodes of the Thunderhead Beowulf
// cluster. p must be between 1 and 256.
func Thunderhead(p int) (*Network, error) {
	if p < 1 || p > ThunderheadMaxNodes {
		return nil, &NodeCountError{Requested: p, Max: ThunderheadMaxNodes}
	}
	procs := make([]Processor, p)
	for i := range procs {
		procs[i] = Processor{
			ID:        i + 1,
			Name:      "Thunderhead dual 2.4GHz Intel Xeon",
			CycleTime: ThunderheadCycleTime,
			MemoryMB:  ThunderheadMemoryMB,
			CacheKB:   ThunderheadCacheKB,
			Segment:   0,
		}
	}
	// Myrinet latency was of the order of ten microseconds.
	return New("thunderhead", procs, uniformLinks(p, ThunderheadLinkMS), 10e-6)
}

// NodeCountError reports a request for more Thunderhead nodes than the
// cluster has.
type NodeCountError struct {
	Requested, Max int
}

// Error implements the error interface.
func (e *NodeCountError) Error() string {
	return fmt.Sprintf("platform: thunderhead node count %d outside [1,%d]", e.Requested, e.Max)
}
