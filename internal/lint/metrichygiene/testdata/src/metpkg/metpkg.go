package metpkg

import (
	"fmt"
	"strconv"

	"metrics"
)

type thing struct {
	c   *metrics.Counter
	vec *metrics.CounterVec
}

// Registration on init paths with registered names: clean.
func New(reg *metrics.Registry) *thing {
	reg.NewCounter("antientropy_rounds_total", "h")
	return &thing{
		c:   reg.NewCounter("good_total", "h"),
		vec: reg.NewCounterVec("hops_total", "h", "layer"),
	}
}

func newGauges(reg *metrics.Registry) *metrics.Gauge {
	return reg.NewGauge("queue_depth", "h")
}

func (t *thing) Instrument(reg *metrics.Registry) {
	reg.NewCounterFunc("queue_depth", "h", func() float64 { return 0 })
}

// A typo'd name splits a time series: flagged against the registry.
func NewTypo(reg *metrics.Registry) {
	reg.NewCounter("goood_total", "h")             // want `unknown metric name "goood_total"`
	reg.NewCounter("antientropy_round_total", "h") // want `unknown metric name "antientropy_round_total"`
}

// An enumerated family is a registration like any other; its value set
// is fixed here, and a literal set's elements must be bounded.
var layers = []string{"1", "2"}

func NewEnums(reg *metrics.Registry, addr string) {
	reg.NewCounterEnum("hops_total", "h", "layer", layers)
	reg.NewCounterEnum("good_total", "h", "kind", []string{"static", kindName})
	reg.NewCounterEnum("goood_total", "h", "layer", layers)        // want `unknown metric name "goood_total"`
	reg.NewCounterEnum("queue_depth", "h", "peer", []string{addr}) // want `label value addr is not obviously bounded`
}

const kindName = "k"

func (t *thing) lateEnum(reg *metrics.Registry) {
	reg.NewCounterEnum("hops_total", "h", "layer", layers) // want `metric registered outside an init path`
}

// A dynamic name can't be checked at all.
func NewDyn(reg *metrics.Registry, name string) {
	reg.NewCounter(name, "h") // want `metric name must be a compile-time constant`
}

// Registration from a request path mints families per call.
func (t *thing) handle(reg *metrics.Registry) {
	reg.NewCounter("good_total", "h") // want `metric registered outside an init path`
}

type kind string

func (t *thing) labels(k kind, n int, addr string) {
	t.vec.With(string(k)).Inc()               // enum conversion: bounded
	t.vec.With(strconv.Itoa(n)).Inc()         // small-int formatting: bounded
	t.vec.With("static").Inc()                // literal: bounded
	t.vec.With(addr).Inc()                    // want `label value addr is not obviously bounded`
	t.vec.With(string(addr)).Inc()            // want `label value string\(addr\) converts a raw string`
	t.vec.With(fmt.Sprint(n)).Inc()           // want `label value fmt\.Sprint\(n\) formats arbitrary data`
	t.vec.With(fmt.Sprintf("%s", addr)).Inc() // want `formats arbitrary data`
}

// The escape hatch still works here.
func (t *thing) allowedLabel(addr string) {
	t.vec.With(addr).Inc() //lint:allow metrichygiene fixed three-node bench, addresses are bounded
}
