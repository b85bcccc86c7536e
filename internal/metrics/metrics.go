// Package metrics is a small, zero-dependency, concurrency-safe metrics
// subsystem for the live HIERAS node and the simulators: a Registry of
// named Counter, Gauge and fixed-bucket Histogram metrics with optional
// labels, exposed in the Prometheus text format. Update paths are
// lock-free (sync/atomic); labelled metrics hand out pre-curried children
// so hot paths never touch a map.
//
// The paper's headline claims are distributional (lower-layer hop share,
// per-layer link latency), so the registry is built around exactly the
// shapes those claims need: per-label counters (hops_total{layer="2"}),
// latency histograms, and callback metrics that surface counters other
// subsystems already maintain (cache hits/misses).
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0; negative deltas belong on a Gauge).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (atomically, via compare-and-swap).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations in fixed buckets defined by ascending
// upper bounds; observations above the last bound land in an implicit
// +Inf overflow bucket. Observe is lock-free.
type Histogram struct {
	uppers  []float64
	counts  []atomic.Uint64 // len(uppers)+1; last = overflow
	sumBits atomic.Uint64
}

func newHistogram(buckets []float64) (*Histogram, error) {
	if len(buckets) == 0 {
		return nil, fmt.Errorf("metrics: histogram needs at least one bucket")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			return nil, fmt.Errorf("metrics: histogram buckets must ascend, got %v", buckets)
		}
	}
	up := make([]float64, len(buckets))
	copy(up, buckets)
	return &Histogram{uppers: up, counts: make([]atomic.Uint64, len(up)+1)}, nil
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.uppers, v) // first upper bound >= v
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// HistogramSnapshot is a consistent-enough point-in-time copy of a
// histogram (buckets are read one by one; concurrent observers may land
// between reads, so Count is recomputed from the bucket copies).
type HistogramSnapshot struct {
	// Uppers are the bucket upper bounds; Counts[i] holds observations in
	// (Uppers[i-1], Uppers[i]]. Counts has one extra overflow entry for
	// observations above the last bound.
	Uppers []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Uppers: append([]float64(nil), h.uppers...),
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// DefLatencyBuckets covers local RPCs (100µs) through WAN timeouts (10s).
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Label is one name="value" pair attached to a metric child.
type Label struct {
	Name, Value string
}

// child is one labelled instance within a family.
type child struct {
	labels string // rendered `k="v",k2="v2"` (no braces), "" when unlabelled
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// family groups all children sharing one metric name.
type family struct {
	name, help, typ string
	labelNames      []string  // for vecs; nil for plain metrics
	buckets         []float64 // for histogram vecs

	mu       sync.RWMutex
	children map[string]*child
}

func (f *family) sortedChildren() []*child {
	f.mu.RLock()
	out := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		out = append(out, c)
	}
	f.mu.RUnlock()
	sort.Slice(out, func(a, b int) bool { return out[a].labels < out[b].labels })
	return out
}

// Registry holds named metric families. All registration methods panic on
// invalid or duplicate names: registration happens at construction time,
// so a clash is a programming error, not a runtime condition.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func (r *Registry) register(name, help, typ string, labelNames []string, buckets []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labelNames {
		if !validName(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("metrics: metric %q registered twice", name))
	}
	f := &family{
		name: name, help: help, typ: typ,
		labelNames: labelNames, buckets: buckets,
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func renderLabels(names, values []string) string {
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	return b.String()
}

// NewCounter registers and returns an unlabelled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.register(name, help, "counter", nil, nil)
	c := &Counter{}
	f.children[""] = &child{c: c}
	return c
}

// NewGauge registers and returns an unlabelled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	f := r.register(name, help, "gauge", nil, nil)
	g := &Gauge{}
	f.children[""] = &child{g: g}
	return g
}

// NewHistogram registers and returns an unlabelled histogram with the
// given ascending bucket upper bounds.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	h, err := newHistogram(buckets)
	if err != nil {
		panic(err.Error())
	}
	f := r.register(name, help, "histogram", nil, nil)
	f.children[""] = &child{h: h}
	return h
}

// NewCounterFunc registers a counter whose value is produced by fn at
// exposition time — the bridge for subsystems that already keep their own
// counters (e.g. the location cache's hit/miss totals). fn must be
// monotonic and safe for concurrent use. Labels distinguish several
// callback children under one name; call with no labels for a plain
// single-sample counter.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64, labels ...Label) {
	names := make([]string, len(labels))
	values := make([]string, len(labels))
	for i, l := range labels {
		names[i], values[i] = l.Name, l.Value
	}
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		f = r.register(name, help, "counter", names, nil)
	} else if f.typ != "counter" || len(f.labelNames) != len(names) {
		panic(fmt.Sprintf("metrics: callback metric %q re-registered with a different shape", name))
	}
	key := renderLabels(names, values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.children[key]; dup {
		panic(fmt.Sprintf("metrics: metric %q{%s} registered twice", name, key))
	}
	f.children[key] = &child{labels: key, fn: fn}
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// NewCounterVec registers a labelled counter family.
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	if len(labelNames) == 0 {
		panic(fmt.Sprintf("metrics: counter vec %q needs at least one label", name))
	}
	return &CounterVec{f: r.register(name, help, "counter", labelNames, nil)}
}

// With returns the pre-curried child for the given label values, creating
// it on first use. Callers on hot paths should call With once and keep
// the child.
func (v *CounterVec) With(values ...string) *Counter {
	c := v.f.lookup(values)
	if c.c == nil {
		panic(fmt.Sprintf("metrics: %q is not a counter", v.f.name))
	}
	return c.c
}

// lookup finds or creates the child for the given label values.
func (f *family) lookup(values []string) *child {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("metrics: %q wants %d label values, got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := renderLabels(f.labelNames, values)
	f.mu.RLock()
	c := f.children[key]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c = f.children[key]; c != nil {
		return c
	}
	c = &child{labels: key}
	switch f.typ {
	case "counter":
		c.c = &Counter{}
	case "gauge":
		c.g = &Gauge{}
	case "histogram":
		h, err := newHistogram(f.buckets)
		if err != nil {
			panic(err.Error())
		}
		c.h = h
	}
	f.children[key] = c
	return c
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteTo renders every metric in the Prometheus text exposition format,
// families and children in deterministic (sorted) order.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(a, b int) bool { return fams[a].name < fams[b].name })

	cw := &countWriter{w: w}
	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(cw, "# HELP %s %s\n", f.name, f.help); err != nil {
				return cw.n, err
			}
		}
		if _, err := fmt.Fprintf(cw, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return cw.n, err
		}
		for _, c := range f.sortedChildren() {
			if err := writeChild(cw, f, c); err != nil {
				return cw.n, err
			}
		}
	}
	return cw.n, nil
}

func writeChild(w io.Writer, f *family, c *child) error {
	braced := ""
	if c.labels != "" {
		braced = "{" + c.labels + "}"
	}
	switch {
	case c.h != nil:
		s := c.h.Snapshot()
		var cum uint64
		for i, cnt := range s.Counts {
			cum += cnt
			upper := math.Inf(1)
			if i < len(s.Uppers) {
				upper = s.Uppers[i]
			}
			le := fmt.Sprintf(`le="%s"`, formatFloat(upper))
			sep := le
			if c.labels != "" {
				sep = c.labels + "," + le
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", f.name, sep, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, braced, formatFloat(s.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, braced, s.Count)
		return err
	case c.c != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, braced, c.c.Value())
		return err
	case c.g != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, braced, formatFloat(c.g.Value()))
		return err
	case c.fn != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, braced, formatFloat(c.fn()))
		return err
	}
	return nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Handler returns an http.Handler serving the registry in the Prometheus
// text format (mount it at /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = r.WriteTo(w)
	})
}
