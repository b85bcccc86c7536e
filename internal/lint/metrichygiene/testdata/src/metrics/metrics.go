// Package metrics is a fixture stand-in for the repo's metrics
// package: the analyzer matches on package NAME, and reads this
// package's own KnownMetricNames registry.
package metrics

type Label struct{ Name, Value string }

type Counter struct{}

func (*Counter) Inc() {}

type Gauge struct{}

func (*Gauge) Set(float64) {}

type Histogram struct{}

func (*Histogram) Observe(float64) {}

type CounterVec struct{}

func (*CounterVec) At(i int) *Counter { return &Counter{} }

type Registry struct{}

func (*Registry) NewCounter(name, help string) *Counter { return &Counter{} }
func (*Registry) NewGauge(name, help string) *Gauge     { return &Gauge{} }
func (*Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	return &Histogram{}
}
func (*Registry) NewCounterVec(name, help, label string, values []string) *CounterVec {
	return &CounterVec{}
}
func (*Registry) NewCounterFunc(name, help string, fn func() float64, labels ...Label) {}

const KnownMetricNames = `
antientropy_rounds_total
good_total
hops_total
queue_depth
`
