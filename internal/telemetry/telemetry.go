// Package telemetry is a dependency-free instrumentation layer for the
// serving stack: counters, gauges and histograms collected into a
// Registry and exposed in the Prometheus text exposition format
// (version 0.0.4), plus a log/slog handler that counts log records by
// level.
//
// The package deliberately reimplements the small subset of a metrics
// client this repository needs instead of importing one: instruments are
// lock-free on the hot path (atomic adds), exposition is deterministic
// (registration order, children sorted by label values) so tests can
// golden-match it, and there are no external dependencies.
//
// Metric naming follows the Prometheus conventions: a `hyperhet_`
// namespace, `_total` suffix on counters, base units (seconds, bytes) in
// the name. Label cardinality is bounded by construction — the only
// labeled dimensions are priority class, job mode, HTTP route/code, log
// level and MPI rank (capped by the largest simulated network, 256).
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metric is anything the registry can expose.
type metric interface {
	// desc returns the metric's name, help string and exposition type
	// ("counter", "gauge", "histogram").
	desc() (name, help, typ string)
	// collect appends fully rendered exposition lines (no HELP/TYPE
	// headers) to b.
	collect(b *strings.Builder)
}

var nameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
var labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// Registry holds a set of metrics and renders them as Prometheus text.
// The zero value is not usable; create with NewRegistry. All methods are
// safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	names   map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// register adds a metric, panicking on duplicate or malformed names —
// metric registration happens at construction time, so a bad name is a
// programming error, not a runtime condition.
func (r *Registry) register(m metric) {
	name, _, _ := m.desc()
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	r.names[name] = true
	r.metrics = append(r.metrics, m)
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format, in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	metrics := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	var b strings.Builder
	for _, m := range metrics {
		name, help, typ := m.desc()
		if help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, escapeHelp(help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, typ)
		m.collect(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler returns an http.Handler serving the registry at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value: backslash, double-quote, newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a sample value with the shortest round-trip
// representation, matching what Prometheus clients emit.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {k="v",...} for parallel name/value slices (empty
// for no labels).
func labelString(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	b.WriteByte('}')
	return b.String()
}

// atomicFloat is a float64 with atomic add/set via uint64 bit-casting.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) add(v float64) {
	for {
		old := a.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if a.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (a *atomicFloat) set(v float64) { a.bits.Store(math.Float64bits(v)) }
func (a *atomicFloat) get() float64  { return math.Float64frombits(a.bits.Load()) }

// Counter is a monotonically increasing value. A nil Counter is a valid
// no-op, so instrumentation sites need no nil checks of their own.
type Counter struct {
	name, help string
	val        atomicFloat
	labels     string // pre-rendered {k="v"} block, "" for plain counters
}

// NewCounter creates and registers a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v; negative deltas are ignored (counters
// are monotonic by contract).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 || math.IsNaN(v) {
		return
	}
	c.val.add(v)
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.val.get()
}

func (c *Counter) desc() (string, string, string) { return c.name, c.help, "counter" }

func (c *Counter) collect(b *strings.Builder) {
	fmt.Fprintf(b, "%s%s %s\n", c.name, c.labels, formatFloat(c.val.get()))
}

// Gauge is a value that can go up and down. A nil Gauge is a valid no-op.
type Gauge struct {
	name, help string
	val        atomicFloat
	labels     string
}

// NewGauge creates and registers a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(g)
	return g
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.val.set(v)
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.val.get()
}

func (g *Gauge) desc() (string, string, string) { return g.name, g.help, "gauge" }

func (g *Gauge) collect(b *strings.Builder) {
	fmt.Fprintf(b, "%s%s %s\n", g.name, g.labels, formatFloat(g.val.get()))
}

// GaugeFunc is a gauge whose value is computed at scrape time — the
// natural shape for "current queue depth" style instruments that already
// live behind a mutex elsewhere. The callback must be safe for
// concurrent use and must not call back into the registry.
type GaugeFunc struct {
	name, help string
	fn         func() float64
}

// NewGaugeFunc creates and registers a scrape-time gauge.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	g := &GaugeFunc{name: name, help: help, fn: fn}
	r.register(g)
	return g
}

func (g *GaugeFunc) desc() (string, string, string) { return g.name, g.help, "gauge" }

func (g *GaugeFunc) collect(b *strings.Builder) {
	fmt.Fprintf(b, "%s %s\n", g.name, formatFloat(g.fn()))
}

// CounterFunc reads a monotonic value through a callback at scrape time,
// for counters whose source of truth lives elsewhere (e.g. package-level
// atomics in a kernel runtime). The callback must be monotonically
// non-decreasing for the counter type to be truthful.
type CounterFunc struct {
	name, help string
	fn         func() float64
}

// NewCounterFunc creates and registers a scrape-time counter.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) *CounterFunc {
	c := &CounterFunc{name: name, help: help, fn: fn}
	r.register(c)
	return c
}

func (c *CounterFunc) desc() (string, string, string) { return c.name, c.help, "counter" }

func (c *CounterFunc) collect(b *strings.Builder) {
	fmt.Fprintf(b, "%s %s\n", c.name, formatFloat(c.fn()))
}

// DefBuckets are the default histogram buckets, spanning the millisecond
// to minute range of both simulated virtual times and real job
// latencies.
var DefBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60}

// Histogram counts observations into cumulative buckets. A nil Histogram
// is a valid no-op.
type Histogram struct {
	name, help string
	labels     string
	bounds     []float64 // strictly increasing upper bounds, +Inf implicit
	counts     []atomic.Uint64
	sum        atomicFloat
	count      atomic.Uint64
}

func newHistogram(name, help string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not strictly increasing", name))
		}
	}
	return &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), buckets...),
		counts: make([]atomic.Uint64, len(buckets)),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.sum.add(v)
	h.count.Add(1)
}

func (h *Histogram) desc() (string, string, string) { return h.name, h.help, "histogram" }

func (h *Histogram) collect(b *strings.Builder) {
	// Cumulative buckets; the le label joins any existing labels.
	joint := func(le string) string {
		if h.labels == "" {
			return fmt.Sprintf(`{le=%q}`, le)
		}
		return strings.TrimSuffix(h.labels, "}") + fmt.Sprintf(`,le=%q}`, le)
	}
	var cum uint64
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", h.name, joint(formatFloat(ub)), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", h.name, joint("+Inf"), h.count.Load())
	fmt.Fprintf(b, "%s_sum%s %s\n", h.name, h.labels, formatFloat(h.sum.get()))
	fmt.Fprintf(b, "%s_count%s %d\n", h.name, h.labels, h.count.Load())
}

// vec is the shared machinery of the labeled metric families: a child
// per label-value tuple, created lazily, exposed sorted by label values
// so the exposition is deterministic.
type vec[T metric] struct {
	name, help string
	labelNames []string
	make       func(labels string) T

	mu       sync.Mutex
	children map[string]T
	order    []string
}

func newVec[T metric](name, help string, labelNames []string, mk func(labels string) T) *vec[T] {
	if len(labelNames) == 0 {
		panic(fmt.Sprintf("telemetry: vector metric %q needs at least one label", name))
	}
	for _, l := range labelNames {
		if !labelRe.MatchString(l) {
			panic(fmt.Sprintf("telemetry: invalid label name %q on %q", l, name))
		}
	}
	return &vec[T]{name: name, help: help, labelNames: labelNames, make: mk,
		children: make(map[string]T)}
}

func (v *vec[T]) with(values ...string) T {
	if len(values) != len(v.labelNames) {
		panic(fmt.Sprintf("telemetry: %q wants %d label values, got %d", v.name, len(v.labelNames), len(values)))
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[key]; ok {
		return c
	}
	c := v.make(labelString(v.labelNames, values))
	v.children[key] = c
	v.order = append(v.order, key)
	sort.Strings(v.order)
	return c
}

func (v *vec[T]) collect(b *strings.Builder) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, key := range v.order {
		v.children[key].collect(b)
	}
}

// CounterVec is a family of counters partitioned by labels.
type CounterVec struct{ v *vec[*Counter] }

// NewCounterVec creates and registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	cv := &CounterVec{v: newVec(name, help, labelNames, func(labels string) *Counter {
		return &Counter{name: name, labels: labels}
	})}
	r.register(cv)
	return cv
}

// With returns (creating if needed) the child for the label values.
func (cv *CounterVec) With(values ...string) *Counter {
	if cv == nil {
		return nil
	}
	return cv.v.with(values...)
}

func (cv *CounterVec) desc() (string, string, string) { return cv.v.name, cv.v.help, "counter" }
func (cv *CounterVec) collect(b *strings.Builder)     { cv.v.collect(b) }

// HistogramVec is a family of histograms partitioned by labels.
type HistogramVec struct{ v *vec[*Histogram] }

// NewHistogramVec creates and registers a labeled histogram family with
// the given buckets (DefBuckets when empty).
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	hv := &HistogramVec{v: newVec(name, help, labelNames, func(labels string) *Histogram {
		h := newHistogram(name, help, buckets)
		h.labels = labels
		return h
	})}
	r.register(hv)
	return hv
}

// With returns (creating if needed) the child for the label values.
func (hv *HistogramVec) With(values ...string) *Histogram {
	if hv == nil {
		return nil
	}
	return hv.v.with(values...)
}

func (hv *HistogramVec) desc() (string, string, string) { return hv.v.name, hv.v.help, "histogram" }
func (hv *HistogramVec) collect(b *strings.Builder)     { hv.v.collect(b) }
