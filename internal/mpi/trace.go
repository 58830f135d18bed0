package mpi

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/vtime"
)

// EventKind labels one traced activity.
type EventKind int

// The traced activities.
const (
	// EventSend is an outgoing transfer (Dur = transfer cost).
	EventSend EventKind = iota
	// EventRecv is an incoming transfer (Dur = idle wait + transfer).
	EventRecv
	// EventCompute is a computation charge.
	EventCompute
	_ // unused: RunReport.TraceEvents marshals kinds as numbers, which must not shift
	// EventCheckpoint is a round-boundary snapshot write or restore at the
	// master (Bytes = snapshot payload size), so timelines and Chrome
	// exports show where a run checkpointed and what the I/O cost.
	EventCheckpoint
)

// String returns a short label.
func (k EventKind) String() string {
	switch k {
	case EventSend:
		return "send"
	case EventRecv:
		return "recv"
	case EventCompute:
		return "compute"
	case EventCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one traced activity of one rank, in virtual time.
type Event struct {
	Rank  int
	Kind  EventKind
	Tag   int     // message tag (sends/receives)
	Peer  int     // the other endpoint (sends/receives), -1 otherwise
	Bytes int     // message size (sends/receives)
	Start float64 // virtual time when the activity began
	Dur   float64 // virtual duration
	// Wait is the leading idle portion of a receive (time spent blocked
	// before the sender was ready); Dur - Wait is the transfer itself.
	// Zero for every other kind.
	Wait float64
	Cat  vtime.Category
}

// Trace collects events from every rank of a world. Collection is
// synchronized; inspect after Run returns.
type Trace struct {
	mu     sync.Mutex
	events []Event
}

// EnableTrace attaches a new trace to the world and returns it. Must be
// called before Run. Tracing costs real time and memory; leave it off for
// benchmarking.
func (w *World) EnableTrace() *Trace {
	t := &Trace{}
	w.trace = t
	return t
}

func (t *Trace) add(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Events returns the collected events sorted by (start time, rank, kind).
func (t *Trace) Events() []Event {
	t.mu.Lock()
	out := append([]Event(nil), t.events...)
	t.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if out[a].Start != out[b].Start {
			return out[a].Start < out[b].Start
		}
		if out[a].Rank != out[b].Rank {
			return out[a].Rank < out[b].Rank
		}
		return out[a].Kind < out[b].Kind
	})
	return out
}

// Timeline renders a per-rank activity bar of the run: each column is a
// slice of virtual time, marked '#' where the rank computed, '~' where it
// communicated, '.' where it idled and ' ' after it finished.
func (t *Trace) Timeline(ranks int, width int) string {
	events := t.Events()
	if len(events) == 0 || width < 1 {
		return "(no events)\n"
	}
	var end float64
	for _, e := range events {
		if v := e.Start + e.Dur; v > end {
			end = v
		}
	}
	if end == 0 {
		return "(no virtual time elapsed)\n"
	}
	grid := make([][]byte, ranks)
	finish := make([]float64, ranks)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	mark := func(rank int, start, dur float64, ch byte) {
		if rank < 0 || rank >= ranks {
			return
		}
		lo := int(start / end * float64(width))
		hi := int((start + dur) / end * float64(width))
		if hi >= width {
			hi = width - 1
		}
		for i := lo; i <= hi; i++ {
			// Compute marks dominate comm marks dominate idle.
			switch {
			case ch == '#':
				grid[rank][i] = '#'
			case ch == '~' && grid[rank][i] != '#':
				grid[rank][i] = '~'
			case grid[rank][i] == ' ':
				grid[rank][i] = ch
			}
		}
		if s := start + dur; s > finish[rank] {
			finish[rank] = s
		}
	}
	for _, e := range events {
		switch e.Kind {
		case EventCompute, EventCheckpoint:
			mark(e.Rank, e.Start, e.Dur, '#')
		default:
			mark(e.Rank, e.Start, e.Dur, '~')
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "virtual time 0 .. %.3fs   #=compute ~=comm .=idle\n", end)
	for r := 0; r < ranks; r++ {
		// Fill idle gaps up to the rank's finish time.
		limit := int(finish[r] / end * float64(width))
		for i := 0; i < limit && i < width; i++ {
			if grid[r][i] == ' ' {
				grid[r][i] = '.'
			}
		}
		fmt.Fprintf(&b, "p%-3d |%s|\n", r+1, grid[r])
	}
	return b.String()
}
