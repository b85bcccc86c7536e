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

var layers = []string{"1", "2"}

// Registration on init paths with registered names: clean.
func New(reg *metrics.Registry) *thing {
	reg.NewCounter("antientropy_rounds_total", "h")
	return &thing{
		c:   reg.NewCounter("good_total", "h"),
		vec: reg.NewCounterVec("hops_total", "h", "layer", layers),
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
	reg.NewCounter("goood_total", "h")                     // want `unknown metric name "goood_total"`
	reg.NewCounter("antientropy_round_total", "h")         // want `unknown metric name "antientropy_round_total"`
	reg.NewCounterVec("goood_total", "h", "layer", layers) // want `unknown metric name "goood_total"`
}

const kindName = "k"

func (t *thing) lateVec(reg *metrics.Registry) {
	reg.NewCounterVec("hops_total", "h", "layer", layers) // want `metric registered outside an init path`
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

// A family's value set is fixed at registration, so a literal set's
// elements must each be bounded.
func NewLabels(reg *metrics.Registry, k kind, n int, addr string) {
	reg.NewCounterVec("hops_total", "h", "layer", []string{
		kindName,                // constant: bounded
		string(k),               // enum conversion: bounded
		strconv.Itoa(n),         // small-int formatting: bounded
		"static",                // literal: bounded
		addr,                    // want `label value addr is not obviously bounded`
		string(addr),            // want `label value string\(addr\) converts a raw string`
		fmt.Sprint(n),           // want `label value fmt\.Sprint\(n\) formats arbitrary data`
		fmt.Sprintf("%s", addr), // want `formats arbitrary data`
	})
}

// The escape hatch still works here.
func NewAllowed(reg *metrics.Registry, addr string) {
	reg.NewCounterVec("queue_depth", "h", "peer", []string{addr}) //lint:allow metrichygiene fixed three-node bench, addresses are bounded
}
