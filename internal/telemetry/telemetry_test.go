package telemetry

import (
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCounterExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_ops_total", "Operations.")
	c.Inc()
	c.Add(2.5)
	c.Add(-7) // ignored: counters are monotonic
	out := render(t, r)
	want := "# HELP test_ops_total Operations.\n# TYPE test_ops_total counter\ntest_ops_total 3.5\n"
	if out != want {
		t.Errorf("exposition = %q, want %q", out, want)
	}
	if c.Value() != 3.5 {
		t.Errorf("Value() = %v", c.Value())
	}
}

// Add increases (or, with negative v, decreases) the gauge.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	g.val.add(v)
}

func TestGaugeAndGaugeFunc(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("test_depth", "Depth.")
	g.Set(4)
	g.Add(-1)
	r.NewGaugeFunc("test_live", "Live.", func() float64 { return 7 })
	out := render(t, r)
	if !strings.Contains(out, "test_depth 3\n") {
		t.Errorf("gauge line missing:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE test_live gauge\ntest_live 7\n") {
		t.Errorf("gauge-func line missing:\n%s", out)
	}
}

func TestHistogramBucketsAreCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogramVec("test_lat_seconds", "Latency.", []float64{0.1, 1, 10}, "k").With("a")
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	out := render(t, r)
	for _, want := range []string{
		`test_lat_seconds_bucket{k="a",le="0.1"} 1`,
		`test_lat_seconds_bucket{k="a",le="1"} 3`,
		`test_lat_seconds_bucket{k="a",le="10"} 4`,
		`test_lat_seconds_bucket{k="a",le="+Inf"} 5`,
		`test_lat_seconds_sum{k="a"} 56.05`,
		`test_lat_seconds_count{k="a"} 5`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestVecChildrenSortedAndLabelled(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("test_jobs_total", "Jobs.", "class")
	cv.With("interactive").Add(2)
	cv.With("batch").Inc()
	hv := r.NewHistogramVec("test_dur_seconds", "Durations.", []float64{1}, "class")
	hv.With("batch").Observe(0.5)
	out := render(t, r)
	// batch sorts before interactive regardless of creation order.
	bi := strings.Index(out, `test_jobs_total{class="batch"} 1`)
	ii := strings.Index(out, `test_jobs_total{class="interactive"} 2`)
	if bi < 0 || ii < 0 || bi > ii {
		t.Errorf("vec children missing or unsorted:\n%s", out)
	}
	if !strings.Contains(out, `test_dur_seconds_bucket{class="batch",le="1"} 1`) {
		t.Errorf("histogram vec le label not joined:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("test_esc_total", "Esc.", "path")
	cv.With("a\"b\\c\nd").Inc()
	out := render(t, r)
	if !strings.Contains(out, `test_esc_total{path="a\"b\\c\nd"} 1`) {
		t.Errorf("label not escaped:\n%s", out)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var cv *CounterVec
	c.Inc()
	c.Add(1)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	cv.With("x").Inc()
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil instruments must read as zero")
	}
}

func TestRegistryRejectsDuplicatesAndBadNames(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "x")
	for name, fn := range map[string]func(){
		"duplicate":  func() { r.NewCounter("dup_total", "x") },
		"bad name":   func() { r.NewCounter("7bad", "x") },
		"bad label":  func() { r.NewCounterVec("ok_total", "x", "bad-label") },
		"no labels":  func() { r.NewCounterVec("ok2_total", "x") },
		"bad bucket": func() { r.NewHistogramVec("ok3", "x", []float64{2, 1}, "k").With("a") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("test_total", "x").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "test_total 1") {
		t.Errorf("body = %q", rec.Body.String())
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_conc_total", "x")
	h := r.NewHistogramVec("test_conc_seconds", "x", nil, "k").With("a")
	cv := r.NewCounterVec("test_conc_vec_total", "x", "i")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j) / 100)
				cv.With(fmt.Sprint(i % 2)).Inc()
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %v, want 8000", c.Value())
	}
	if out := render(t, r); !strings.Contains(out, `test_conc_seconds_count{k="a"} 8000`+"\n") {
		t.Errorf("histogram count is not 8000:\n%s", out)
	}
	if got := cv.With("0").Value() + cv.With("1").Value(); got != 8000 {
		t.Errorf("vec total = %v, want 8000", got)
	}
}

// expositionLine matches a sample line of the text format.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// ValidatePrometheusText is reused by the hyperhetd endpoint test via
// copy; here it guards the renderer itself: every non-comment line must
// be a well-formed sample.
func validateText(t *testing.T, text string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

func TestExpositionWellFormed(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("a_total", "with \\ backslash\nand newline").Add(1.5)
	r.NewGauge("b", "").Set(-2)
	r.NewHistogramVec("c_seconds", "h", nil, "k").With("v").Observe(0.3)
	r.NewCounterVec("d_total", "v", "k").With(`quote " here`).Inc()
	validateText(t, render(t, r))
}

func TestLogHandlerCountsByLevel(t *testing.T) {
	r := NewRegistry()
	h := NewLogHandler(r, slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelDebug}))
	log := slog.New(h)
	log.Info("a")
	log.Info("b", "k", "v")
	log.Warn("c")
	log.Error("d")
	log.With("svc", "x").WithGroup("g").Error("e")
	out := render(t, r)
	for _, want := range []string{
		`hyperhet_log_records_total{level="INFO"} 2`,
		`hyperhet_log_records_total{level="WARN"} 1`,
		`hyperhet_log_records_total{level="ERROR"} 2`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
