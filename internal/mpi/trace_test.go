package mpi

import (
	"strings"
	"testing"

	"repro/internal/vtime"
)

func TestTraceCollectsEvents(t *testing.T) {
	w := NewWorld(twoNode(t, 10))
	tr := w.EnableTrace()
	mustRun(t, w, func(c *Comm) any {
		if c.Root() {
			c.Compute(10e6, vtime.Seq)
			c.Send(1, 3, "x", 125000)
		} else {
			c.Recv(0, 3)
			c.Compute(20e6, vtime.Par)
		}
		return nil
	})
	events := tr.Events()
	if len(events) != 4 {
		t.Fatalf("traced %d events, want 4", len(events))
	}
	// Sorted by start time: rank 0 compute, then send/recv, then rank 1
	// compute.
	if events[0].Kind != EventCompute || events[0].Rank != 0 {
		t.Errorf("first event %+v", events[0])
	}
	var send, recv *Event
	for i := range events {
		switch events[i].Kind {
		case EventSend:
			send = &events[i]
		case EventRecv:
			recv = &events[i]
		}
	}
	if send == nil || recv == nil {
		t.Fatal("send/recv not traced")
	}
	if send.Peer != 1 || send.Bytes != 125000 || send.Tag != 3 {
		t.Errorf("send event %+v", send)
	}
	if recv.Peer != 0 || recv.Rank != 1 {
		t.Errorf("recv event %+v", recv)
	}
	// The receive covers the idle wait for the sender's 0.1s compute.
	if recv.Dur < 0.09 {
		t.Errorf("recv duration %v does not cover the wait", recv.Dur)
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	w := NewWorld(twoNode(t, 10))
	mustRun(t, w, func(c *Comm) any {
		c.Compute(1e6, vtime.Par)
		return nil
	})
	// No trace attached: nothing to assert beyond not panicking.
}

func TestTraceTimeline(t *testing.T) {
	w := NewWorld(twoNode(t, 10))
	tr := w.EnableTrace()
	mustRun(t, w, func(c *Comm) any {
		if c.Root() {
			c.Compute(100e6, vtime.Par) // 1s
			c.Send(1, 1, nil, 1250000)  // ~0.019s
		} else {
			c.Recv(0, 1)
			c.Compute(100e6, vtime.Par) // 2s on the slow node
		}
		return nil
	})
	out := tr.Timeline(2, 60)
	if !strings.Contains(out, "p1") || !strings.Contains(out, "p2") {
		t.Fatalf("timeline missing ranks:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Error("timeline missing compute marks")
	}
	if !strings.Contains(out, ".") {
		t.Error("timeline missing idle marks (rank 2 waits ~1s)")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Errorf("timeline has %d lines, want header + 2 ranks", len(lines))
	}
	// Rank 1 finishes at ~1.02s of ~3.02s total: its tail is blank.
	p1 := lines[1]
	if !strings.HasSuffix(strings.TrimSuffix(p1, "|"), " ") {
		t.Errorf("rank 1 row should end blank after finishing early: %q", p1)
	}
}

func TestTraceTimelineEmpty(t *testing.T) {
	tr := &Trace{}
	if out := tr.Timeline(2, 40); !strings.Contains(out, "no events") {
		t.Errorf("empty timeline = %q", out)
	}
}

func TestTraceSummarize(t *testing.T) {
	w := NewWorld(homoNet(t, 3, 0.01, 5))
	tr := w.EnableTrace()
	mustRun(t, w, func(c *Comm) any {
		c.Bcast(0, 2, "hello", 100)
		c.Compute(1e6, vtime.Par)
		return nil
	})
	sums := tr.Summarize(3)
	if sums[0].Sends != 2 {
		t.Errorf("root sends = %d, want 2", sums[0].Sends)
	}
	if sums[0].BytesSent != 200 {
		t.Errorf("root bytes = %d", sums[0].BytesSent)
	}
	for r := 1; r < 3; r++ {
		if sums[r].Recvs != 1 {
			t.Errorf("rank %d recvs = %d", r, sums[r].Recvs)
		}
		if sums[r].Computes != 1 {
			t.Errorf("rank %d computes = %d", r, sums[r].Computes)
		}
	}
}

func TestEventKindString(t *testing.T) {
	if EventSend.String() != "send" || EventRecv.String() != "recv" || EventCompute.String() != "compute" {
		t.Error("event kind labels wrong")
	}
	if !strings.Contains(EventKind(9).String(), "9") {
		t.Error("unknown kind label wrong")
	}
}

// Summary aggregates the trace: per-rank event counts and bytes.
type Summary struct {
	Sends, Recvs, Computes int
	Checkpoints            int
	BytesSent              int
}

// Summarize returns per-rank totals.
func (t *Trace) Summarize(ranks int) []Summary {
	out := make([]Summary, ranks)
	for _, e := range t.Events() {
		if e.Rank < 0 || e.Rank >= ranks {
			continue
		}
		s := &out[e.Rank]
		switch e.Kind {
		case EventSend:
			s.Sends++
			s.BytesSent += e.Bytes
		case EventRecv:
			s.Recvs++
		case EventCompute:
			s.Computes++
		case EventCheckpoint:
			s.Checkpoints++
		}
	}
	return out
}
