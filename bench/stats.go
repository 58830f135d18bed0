package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule; xs need not be sorted and is not modified. An empty input gives 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), q)]
}

func rankIndex(n int, q float64) int {
	i := int(q*float64(n)+0.999999) - 1 // ceil(q*n) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// samplesBeyond is how many of n samples lie strictly above the q-quantile's
// rank. A tail percentile is reported only with at least ten beyond it.
func samplesBeyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, q)
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// span is one traced interval of the client side of an op. Parent is the
// index of the enclosing span in the same slice, -1 for an op's root span;
// spans of one op share its Op id.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

// selfTimes returns, per span, its duration minus the part of its interval
// its direct children cover (overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := spans[k].StartNS, spans[k].EndNS
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.EndNS - s.StartNS - covered
	}
	return out
}

// promSamples maps a series — the metric name plus its label set verbatim
// (`{a="b",c="d"}` or nothing) — to its value.
type promSamples map[string]float64

// parseProm reads Prometheus text exposition into name+labels -> value.
// Comment lines are skipped; a malformed sample line is an error.
func parseProm(r io.Reader) (promSamples, error) {
	out := make(promSamples)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space outside the label braces.
		cut := strings.LastIndexByte(line, ' ')
		if brace := strings.LastIndexByte(line, '}'); cut < brace || cut <= 0 {
			return nil, fmt.Errorf("prometheus text: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus text: value of %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out, sc.Err()
}

// sum adds every series of the named family, optionally only those whose
// label set contains every given `key="value"` fragment.
func (p promSamples) sum(family string, labels ...string) float64 {
	total := 0.0
next:
	for k, v := range p {
		name, rest := k, ""
		if i := strings.IndexByte(k, '{'); i >= 0 {
			name, rest = k[:i], k[i:]
		}
		if name != family {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				continue next
			}
		}
		total += v
	}
	return total
}

// promDelta returns after - before per series; a series absent before counts
// from zero.
func promDelta(before, after promSamples) promSamples {
	out := make(promSamples, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
