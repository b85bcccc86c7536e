package core

import (
	"slices"

	"repro/internal/chord"
	"repro/internal/id"
)

// Hop is one message forward during a routing procedure.
type Hop struct {
	Layer    int // ring layer the hop was taken in; 1 = global ring
	From, To int // overlay node indexes
	Latency  float64
}

// RouteResult describes one completed routing procedure.
type RouteResult struct {
	Origin, Dest int   // overlay node indexes
	Key          id.ID // requested key
	Hops         []Hop
	// Latency is the total routing latency in milliseconds (sum of hop
	// link latencies).
	Latency float64
	// LowerHops / LowerLatency aggregate the hops taken in layers >= 2,
	// the quantity paper §4.3 reports as "hops executed on the lower
	// layer P2P rings".
	LowerHops    int
	LowerLatency float64
	// Accelerated reports whether the successor-list shortcut ended the
	// route (only with Config.AccelerateWithSuccessorList).
	Accelerated bool
}

// NumHops returns the routing hop count.
func (r *RouteResult) NumHops() int { return len(r.Hops) }

// Totals returns the result's counts and sums.
func (r *RouteResult) Totals() Totals {
	return Totals{Dest: r.Dest, Hops: len(r.Hops), LowerHops: r.LowerHops,
		Latency: r.Latency, LowerLatency: r.LowerLatency, Accelerated: r.Accelerated}
}

// Totals is a routing procedure's outcome without the hops themselves:
// what a caller that reads only counts and sums needs, from the same loop
// as RouteResult and with no heap object.
type Totals struct {
	Dest            int // overlay node index
	Hops, LowerHops int
	// Latency and LowerLatency sum the hops' link latencies in
	// milliseconds, in hop order, as RouteResult does.
	Latency, LowerLatency float64
	Accelerated           bool
}

// Route performs a HIERAS routing procedure for key starting at overlay
// node `from` (paper §3.2): the lookup runs the underlying Chord routing
// once per layer from the originator's most local ring up to the global
// ring, checking after every layer whether the current peer is already the
// destination.
//
// Route is safe for unbounded concurrent use — the batch query engine
// fans thousands of Route/ChordRoute calls across goroutines over one
// shared overlay. The read path touches only state that is immutable
// after Build (chord tables, node/ring membership), the latency oracle
// (internally synchronized, see topology.DijkstraOracle), and atomic
// metric counters loaded through o.instr. route_race_test.go exercises
// this contract under -race.
func (o *Overlay) Route(from int, key id.ID) RouteResult {
	return o.traced(from, key, o.cfg.Depth, o.instr.Load())
}

// ChordRoute performs a plain flat Chord lookup over the global ring —
// the baseline the paper compares against: the same procedure entered at
// layer 1. The baseline is never instrumented, so the overlay's counters
// describe the hierarchical procedure alone.
func (o *Overlay) ChordRoute(from int, key id.ID) RouteResult {
	return o.traced(from, key, 1, nil)
}

// RouteTotals is Route without the per-hop record.
func (o *Overlay) RouteTotals(from int, key id.ID) Totals {
	return o.route(from, key, o.cfg.Depth, o.instr.Load(), nil)
}

// ChordRouteTotals is ChordRoute without the per-hop record.
func (o *Overlay) ChordRouteTotals(from int, key id.ID) Totals {
	return o.route(from, key, 1, nil, nil)
}

// traced is route keeping every hop, as a RouteResult.
func (o *Overlay) traced(from int, key id.ID, top int, rm *routeMetrics) RouteResult {
	res := RouteResult{Origin: from, Key: key}
	t := o.route(from, key, top, rm, &res.Hops)
	res.Dest, res.Accelerated = t.Dest, t.Accelerated
	res.Latency, res.LowerHops, res.LowerLatency = t.Latency, t.LowerHops, t.LowerLatency
	return res
}

// route is chord.Route driven by the oracle: an ask walks RingOf(at,
// layer) in-process, charging each hop its link latency, and makes the
// destination check and the successor-list shortcut itself. No ask fails,
// so neither does the route. rm may be nil. Each hop is appended to *path
// unless path is nil.
func (o *Overlay) route(from int, key id.ID, top int, rm *routeMetrics, path *[]Hop) Totals {
	owner := o.global.Table.SuccessorIndex(key)
	res := Totals{Dest: owner}
	if rm != nil {
		rm.routes.Inc()
	}

	// hop takes one forward, between overlay node indexes, in ring layer l.
	hop := func(l, gf, gt int) {
		lat := o.net.Latency(o.nodes[gf].Host, o.nodes[gt].Host)
		if path != nil {
			*path = append(*path, Hop{Layer: l, From: gf, To: gt, Latency: lat})
		}
		res.Hops++
		res.Latency += lat
		if l >= 2 {
			res.LowerHops++
			res.LowerLatency += lat
		}
		rm.hop(l)
	}
	var ring *Ring
	record := func(f, t int) { hop(ring.Layer, int(ring.Global[f]), int(ring.Global[t])) }
	ask := func(at, _ int, layer int) (chord.Reply[int], error) {
		if at != owner && o.cfg.AccelerateWithSuccessorList &&
			slices.Contains(o.global.Table.SuccessorList(at, o.cfg.SuccessorListLen), owner) {
			hop(1, at, owner) // the owner is in at's global successor list
			res.Accelerated, at = true, owner
			if rm != nil {
				rm.accelerated.Inc()
			}
		}
		if at == owner {
			return chord.Reply[int]{Self: at, Next: at, Done: true, Owner: true}, nil
		}
		var member int
		ring, member = o.RingOf(at, layer)
		p, s := ring.Table.Walk(member, key, record)
		return chord.Reply[int]{Self: int(ring.Global[p]), Next: int(ring.Global[s]), Done: true}, nil
	}
	t, _ := chord.Route(from, top, ask, hop)
	if rm != nil {
		rm.ringClimbs.Add(uint64(t.Climbs))
	}
	return res
}
