// Package metrics is a small, zero-dependency, concurrency-safe metrics
// subsystem for the live HIERAS node and the simulators: a Registry of
// named Counter, Gauge and fixed-bucket Histogram metrics with optional
// labels, exposed in the Prometheus text format. Update paths are
// lock-free (sync/atomic). A labelled counter family has one label whose
// values are fixed when it is registered, so nothing a peer sends can
// mint a series, and hot paths keep its children or index them by
// position.
//
// The paper's headline claims are distributional (lower-layer hop share,
// per-layer link latency), so the registry is built around exactly the
// shapes those claims need: per-label counters (hops_total{layer="2"}),
// latency histograms, and callback metrics that surface counters other
// subsystems already maintain (cache hits/misses).
//
// Every live node owns a registry, so what a registry holds is paid once
// per node: an unlabelled metric is one allocation (its value lives in
// its family record), a histogram shares its caller's bucket bounds, and
// a labelled family keeps its children in one slice and shares its
// caller's value set, a package-level slice every registry uses.
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
	uppers  []float64       // the registering caller's bounds, shared, never written
	counts  []atomic.Uint64 // len(uppers)+1; last = overflow
	sumBits atomic.Uint64
}

func checkBuckets(buckets []float64) {
	if len(buckets) == 0 {
		panic("metrics: histogram needs at least one bucket")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: histogram buckets must ascend, got %v", buckets))
		}
	}
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

// family is one registered metric name. Each kind of metric is its own
// record type, holding its value (or its children) inline.
type family interface {
	describe() *desc
	typ() string
	// samples writes the family's sample lines, children in label order.
	samples(w io.Writer) error
}

// desc is what every family has: the name it is exposed and indexed
// under, and its HELP text.
type desc struct {
	name, help string
}

func (d *desc) describe() *desc { return d }

type counterFamily struct {
	desc
	c Counter
}

func (*counterFamily) typ() string { return "counter" }

func (f *counterFamily) samples(w io.Writer) error {
	_, err := fmt.Fprintf(w, "%s %d\n", f.name, f.c.Value())
	return err
}

type gaugeFamily struct {
	desc
	g Gauge
}

func (*gaugeFamily) typ() string { return "gauge" }

func (f *gaugeFamily) samples(w io.Writer) error {
	_, err := fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(f.g.Value()))
	return err
}

type histogramFamily struct {
	desc
	h Histogram
}

func (*histogramFamily) typ() string { return "histogram" }

func (f *histogramFamily) samples(w io.Writer) error {
	s := f.h.Snapshot()
	var cum uint64
	for i, cnt := range s.Counts {
		cum += cnt
		upper := math.Inf(1)
		if i < len(s.Uppers) {
			upper = s.Uppers[i]
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", f.name, formatFloat(upper), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", f.name, formatFloat(s.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", f.name, s.Count)
	return err
}

// funcFamily holds the callback counters registered under one name, one
// per label set.
type funcFamily struct {
	desc
	labelNames int // label count every child must have

	mu   sync.Mutex
	kids []funcChild
}

type funcChild struct {
	labels string // rendered `k="v",k2="v2"` (no braces), "" when unlabelled
	fn     func() float64
}

func (*funcFamily) typ() string { return "counter" }

func (f *funcFamily) samples(w io.Writer) error {
	f.mu.Lock()
	kids := append([]funcChild(nil), f.kids...)
	f.mu.Unlock()
	sort.Slice(kids, func(a, b int) bool { return kids[a].labels < kids[b].labels })
	for _, k := range kids {
		labels := k.labels
		if labels != "" {
			labels = "{" + labels + "}"
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labels, formatFloat(k.fn())); err != nil {
			return err
		}
	}
	return nil
}

// Registry holds named metric families. All registration methods panic on
// invalid or duplicate names: registration happens at construction time,
// so a clash is a programming error, not a runtime condition.
type Registry struct {
	mu       sync.RWMutex
	families []family // sorted by name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

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

func checkNames(name string, labelNames []string) {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labelNames {
		if !validName(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l, name))
		}
	}
}

// search returns the index name has, or would have, in r.families.
// Callers hold r.mu.
func (r *Registry) search(name string) (int, bool) {
	i := sort.Search(len(r.families), func(i int) bool { return r.families[i].describe().name >= name })
	return i, i < len(r.families) && r.families[i].describe().name == name
}

// register indexes f under its name, once the name and its label names
// are checked.
func (r *Registry) register(f family, labelNames ...string) {
	checkNames(f.describe().name, labelNames)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.insertLocked(f)
}

func (r *Registry) insertLocked(f family) {
	i, dup := r.search(f.describe().name)
	if dup {
		panic(fmt.Sprintf("metrics: metric %q registered twice", f.describe().name))
	}
	r.families = append(r.families, nil)
	copy(r.families[i+1:], r.families[i:])
	r.families[i] = f
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
	f := &counterFamily{desc: desc{name, help}}
	r.register(f)
	return &f.c
}

// NewGauge registers and returns an unlabelled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	f := &gaugeFamily{desc: desc{name, help}}
	r.register(f)
	return &f.g
}

// NewHistogram registers and returns an unlabelled histogram with the
// given ascending bucket upper bounds. The histogram keeps buckets, not a
// copy, so the caller must not modify it afterwards: pass a package-level
// slice such as DefLatencyBuckets.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	checkBuckets(buckets)
	f := &histogramFamily{desc: desc{name, help}}
	f.h.uppers, f.h.counts = buckets, make([]atomic.Uint64, len(buckets)+1)
	r.register(f)
	return &f.h
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
	checkNames(name, names)
	key := renderLabels(names, values)
	r.mu.Lock()
	var f *funcFamily
	if i, ok := r.search(name); !ok {
		f = &funcFamily{desc: desc{name, help}, labelNames: len(names)}
		r.insertLocked(f)
	} else if f, ok = r.families[i].(*funcFamily); !ok || f.labelNames != len(names) {
		r.mu.Unlock()
		panic(fmt.Sprintf("metrics: callback metric %q re-registered with a different shape", name))
	}
	r.mu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, k := range f.kids {
		if k.labels == key {
			panic(fmt.Sprintf("metrics: metric %q{%s} registered twice", name, key))
		}
	}
	f.kids = append(f.kids, funcChild{labels: key, fn: fn})
}

// CounterVec is a one-label counter family whose label values are fixed
// at registration: one child per value, created then and held in one
// slice, so a family's series are bounded by construction and all of
// them are exposed from the first scrape.
type CounterVec struct {
	desc
	label string
	// values is the caller's slice, shared, never written; kids[i] counts
	// values[i].
	values []string
	kids   []Counter
}

// NewCounterVec registers a counter family labelled label, with one child
// per element of values. values is kept, not copied: pass a package-level
// slice, which every registry then shares.
func (r *Registry) NewCounterVec(name, help, label string, values []string) *CounterVec {
	v := &CounterVec{desc: desc{name, help}, label: label, values: values, kids: make([]Counter, len(values))}
	r.register(v, label)
	return v
}

func (*CounterVec) typ() string { return "counter" }

// At returns the child of values[i].
func (v *CounterVec) At(i int) *Counter { return &v.kids[i] }

// With returns value's child. It panics on a value the family was not
// registered with: the set is fixed, so that is a programming error.
func (v *CounterVec) With(value string) *Counter {
	for i, e := range v.values {
		if e == value {
			return &v.kids[i]
		}
	}
	panic(fmt.Sprintf("metrics: %q has no child %s=%q", v.name, v.label, value))
}

func (v *CounterVec) samples(w io.Writer) error {
	type sample struct {
		labels string
		value  uint64
	}
	out := make([]sample, len(v.values))
	for i := range v.values {
		out[i] = sample{renderLabels([]string{v.label}, v.values[i:i+1]), v.kids[i].Value()}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].labels < out[b].labels })
	for _, s := range out {
		if _, err := fmt.Fprintf(w, "%s{%s} %d\n", v.name, s.labels, s.value); err != nil {
			return err
		}
	}
	return nil
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
	fams := append([]family(nil), r.families...)
	r.mu.RUnlock()
	cw := &countWriter{w: w}
	for _, f := range fams {
		d := f.describe()
		if d.help != "" {
			if _, err := fmt.Fprintf(cw, "# HELP %s %s\n", d.name, d.help); err != nil {
				return cw.n, err
			}
		}
		if _, err := fmt.Fprintf(cw, "# TYPE %s %s\n", d.name, f.typ()); err != nil {
			return cw.n, err
		}
		if err := f.samples(cw); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
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
