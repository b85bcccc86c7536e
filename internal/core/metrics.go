package core

import (
	"strconv"

	"repro/internal/metrics"
)

// routeMetrics holds the overlay's registered counters. Loaded through an
// atomic pointer so instrumenting an overlay keeps Route safe for
// concurrent use.
type routeMetrics struct {
	hops        *metrics.CounterVec // hops.At(l-1) = hops taken in ring layer l
	ringClimbs  *metrics.Counter
	routes      *metrics.Counter
	accelerated *metrics.Counter
	deadSkips   *metrics.Counter
	layerAborts *metrics.Counter
}

// Instrument registers the overlay's routing metrics on reg and starts
// recording into them. Subsequent Route calls (and routing on views made
// by WithFailures afterwards) count per-layer hops, ring climbs, and
// failure-handling events. Call at most once per overlay, with a registry
// no other overlay uses.
func (o *Overlay) Instrument(reg *metrics.Registry) {
	rm := &routeMetrics{
		ringClimbs: reg.NewCounter("ring_climbs_total",
			"Routing transitions from a lower ring to the next layer up."),
		routes: reg.NewCounter("routes_total",
			"Routing procedures executed over the overlay."),
		accelerated: reg.NewCounter("accelerated_routes_total",
			"Routes ended early by the successor-list shortcut."),
		deadSkips: reg.NewCounter("failure_succ_skips_total",
			"Dead successors bridged via successor lists during faulty-view walks."),
		layerAborts: reg.NewCounter("failure_layer_aborts_total",
			"Lower-ring walks abandoned on a shattered ring, retried one layer up."),
	}
	layers := make([]string, o.cfg.Depth)
	for i := range layers {
		layers[i] = strconv.Itoa(i + 1)
	}
	rm.hops = reg.NewCounterVec("hops_total",
		"Routing hops by ring layer (1 = global ring).", "layer", layers)
	o.instr.Store(rm)
}

// hop records one routing hop in layer l (1-based).
func (rm *routeMetrics) hop(layer int) {
	if rm == nil {
		return
	}
	rm.hops.At(layer - 1).Inc()
}
