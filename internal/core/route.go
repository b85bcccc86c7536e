package core

import (
	"fmt"

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
	res, _ := o.route(from, key, o.cfg.Depth, nil, o.instr.Load())
	return res
}

// ChordRoute performs a plain flat Chord lookup over the global ring —
// the baseline the paper compares against: the same procedure entered at
// layer 1. The baseline is never instrumented, so the overlay's counters
// describe the hierarchical procedure alone.
func (o *Overlay) ChordRoute(from int, key id.ID) RouteResult {
	res, _ := o.route(from, key, 1, nil, nil)
	return res
}

// route is the one routing loop: Chord's ring walk once per layer from
// ring layer `top` down to the global ring (layer 1), a destination check
// between loops, and the final forward to the key's owner on the global
// ring. A non-nil view routes around its failed peers, before any repair
// has run (paper §3.3); only then can the procedure fail. rm may be nil.
func (o *Overlay) route(from int, key id.ID, top int, v *FaultyView, rm *routeMetrics) (RouteResult, error) {
	owner := o.global.Table.SuccessorIndex(key)
	if v != nil {
		if v.dead[from] {
			return RouteResult{}, fmt.Errorf("core: route from dead peer %d", from)
		}
		owner = v.LiveOwner(key)
	}
	res := RouteResult{Origin: from, Key: key, Dest: owner}
	if rm != nil {
		rm.routes.Inc()
	}

	var ring *Ring
	layer := top
	record := func(f, t int) {
		gf, gt := int(ring.Global[f]), int(ring.Global[t])
		lat := o.net.Latency(o.nodes[gf].Host, o.nodes[gt].Host)
		res.Hops = append(res.Hops, Hop{Layer: layer, From: gf, To: gt, Latency: lat})
		res.Latency += lat
		if layer >= 2 {
			res.LowerHops++
			res.LowerLatency += lat
		}
		rm.hop(layer)
	}

	// cur == owner is the destination check between loops (paper §3.2).
	for cur := from; layer >= 1 && cur != owner; layer-- {
		if rm != nil && layer < top {
			rm.ringClimbs.Inc() // the previous, more local layer did not finish
		}
		if v == nil && o.cfg.AccelerateWithSuccessorList && o.trySuccessorShortcut(&res, rm, cur, owner) {
			break
		}
		var member int
		var dead []bool
		ring, member = o.RingOf(cur, layer)
		if v != nil {
			dead = v.masks[ring]
		}
		p, s, skips, ok := ring.Table.Walk(member, key, dead, o.cfg.SuccessorListLen, record)
		if rm != nil && skips > 0 {
			rm.deadSkips.Add(uint64(skips))
		}
		cur = int(ring.Global[p])
		switch {
		case layer > 1:
			// A lower ring can be shattered (r consecutive ring successors
			// dead) while the overlay as a whole is fine; give up on this
			// layer from wherever the partial walk reached and climb, as a
			// real peer would after timeouts.
			if !ok && rm != nil {
				rm.layerAborts.Inc()
			}
		case !ok:
			return res, fmt.Errorf("core: global ring unroutable past peer %d", cur)
		case cur != owner:
			// Global ring: the final forward, to the key's owner.
			record(p, s)
			if cur = s; cur != owner {
				return res, fmt.Errorf("core: landed on %d, live owner is %d", cur, owner)
			}
		}
	}
	return res, nil
}

// trySuccessorShortcut implements the paper's successor-list acceleration:
// if the destination is within the current peer's successor list in the
// global ring, forward straight to it.
func (o *Overlay) trySuccessorShortcut(res *RouteResult, rm *routeMetrics, cur, owner int) bool {
	for _, s := range o.global.Table.SuccessorList(cur, o.cfg.SuccessorListLen) {
		if s == owner {
			lat := o.net.Latency(o.nodes[cur].Host, o.nodes[owner].Host)
			res.Hops = append(res.Hops, Hop{Layer: 1, From: cur, To: owner, Latency: lat})
			res.Latency += lat
			res.Accelerated = true
			rm.hop(1)
			if rm != nil {
				rm.accelerated.Inc()
			}
			return true
		}
	}
	return false
}
