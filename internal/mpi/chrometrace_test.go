package mpi

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/vtime"
)

// decodeChrome unmarshals exporter output back into the generic trace
// shape for assertions.
func decodeChrome(t *testing.T, buf *bytes.Buffer) chromeTrace {
	t.Helper()
	var out chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("exporter produced invalid JSON: %v\n%s", err, buf.String())
	}
	return out
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	out := decodeChrome(t, &buf)
	if out.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	// Only the process metadata event; no slices, no thread rows.
	if len(out.TraceEvents) != 1 || out.TraceEvents[0].Ph != "M" {
		t.Errorf("empty trace events = %+v", out.TraceEvents)
	}
}

func TestWriteChromeTraceSingleRank(t *testing.T) {
	events := []Event{
		{Rank: 0, Kind: EventCompute, Peer: -1, Start: 0, Dur: 1.5, Cat: vtime.Seq},
		{Rank: 0, Kind: EventCheckpoint, Peer: -1, Start: 1.5, Dur: 0.25, Cat: vtime.Seq},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	out := decodeChrome(t, &buf)
	var slices, meta int
	for _, e := range out.TraceEvents {
		switch e.Ph {
		case "X":
			slices++
			if e.Tid != 1 {
				t.Errorf("slice tid = %d, want 1", e.Tid)
			}
			if e.Cat != "SEQ" {
				t.Errorf("slice cat = %q, want SEQ", e.Cat)
			}
		case "M":
			meta++
		}
	}
	if slices != 2 {
		t.Errorf("slices = %d, want 2", slices)
	}
	if meta != 2 { // process_name + one thread_name
		t.Errorf("metadata events = %d, want 2", meta)
	}
	// 1.5 virtual seconds -> 1.5e6 trace microseconds.
	if out.TraceEvents[1].Dur != 1.5e6 {
		t.Errorf("compute dur = %v us, want 1.5e6", out.TraceEvents[1].Dur)
	}
}

func TestWriteChromeTraceSplitsRecvWait(t *testing.T) {
	w := NewWorld(twoNode(t, 10))
	tr := w.EnableTrace()
	mustRun(t, w, func(c *Comm) any {
		if c.Root() {
			c.Compute(10e6, vtime.Seq) // 0.1s head start
			c.Send(1, 3, "x", 125000)
		} else {
			c.Recv(0, 3)
			c.Compute(20e6, vtime.Par)
		}
		return nil
	})
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	out := decodeChrome(t, &buf)
	var wait, recv *chromeEvent
	for i, e := range out.TraceEvents {
		if strings.HasPrefix(e.Name, "wait ") {
			wait = &out.TraceEvents[i]
		}
		if strings.HasPrefix(e.Name, "recv ") {
			recv = &out.TraceEvents[i]
		}
	}
	if wait == nil || recv == nil {
		t.Fatalf("wait/recv slices missing:\n%s", buf.String())
	}
	if wait.Cat != "IDLE" || recv.Cat != "COM" {
		t.Errorf("wait cat %q, recv cat %q", wait.Cat, recv.Cat)
	}
	// The wait covers the sender's 0.1s compute; the transfer starts
	// exactly where the wait ends.
	if wait.Dur < 0.09e6 {
		t.Errorf("wait dur = %v us, want >= 0.09e6", wait.Dur)
	}
	if got := wait.Ts + wait.Dur; math.Abs(got-recv.Ts) > 1e-6 {
		t.Errorf("transfer starts at %v, wait ends at %v", recv.Ts, got)
	}
	if recv.Dur <= 0 {
		t.Errorf("transfer dur = %v, want > 0", recv.Dur)
	}
}

func TestWriteChromeTraceComputeSumsMatchClocks(t *testing.T) {
	// Per-rank PAR-category slice durations in the export must equal the
	// clocks' Par totals: the property the /jobs/{id}/trace endpoint
	// relies on.
	w := NewWorld(homoNet(t, 3, 0.01, 5))
	tr := w.EnableTrace()
	res := mustRun(t, w, func(c *Comm) any {
		c.Bcast(0, 2, "hello", 100)
		c.Compute(float64(1+c.Rank())*1e6, vtime.Par)
		return nil
	})
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	out := decodeChrome(t, &buf)
	par := make([]float64, 3)
	for _, e := range out.TraceEvents {
		if e.Ph == "X" && e.Cat == "PAR" {
			par[e.Tid-1] += e.Dur / 1e6
		}
	}
	for r := 0; r < 3; r++ {
		want := res.Clocks[r].Par
		if math.Abs(par[r]-want) > 1e-9 {
			t.Errorf("rank %d PAR sum %v, clock %v", r, par[r], want)
		}
	}
}

func TestRankCountersCollected(t *testing.T) {
	w := NewWorld(homoNet(t, 3, 0.01, 5))
	res := mustRun(t, w, func(c *Comm) any {
		c.Bcast(0, 2, "hello", 100)
		c.Compute(1e6, vtime.Par)
		return nil
	})
	root := res.Counters[0]
	if root.Sends != 2 || root.BytesSent != 200 {
		t.Errorf("root counters %+v", root)
	}
	if root.Computes != 1 || root.Flops != 1e6 {
		t.Errorf("root compute counters %+v", root)
	}
	for r := 1; r < 3; r++ {
		ctr := res.Counters[r]
		if ctr.Recvs != 1 || ctr.BytesRecv != 100 {
			t.Errorf("rank %d counters %+v", r, ctr)
		}
	}
}
