package core

import (
	"fmt"

	"repro/internal/id"
)

// FaultyView routes over the overlay with a subset of peers silently
// failed, before any repair has run: fingers pointing at dead peers are
// skipped (a timeout in a real deployment) and per-layer successor lists
// bridge dead ring neighbors, exactly the Chord failure machinery the
// paper says HIERAS inherits in every layer (§3.3). The view is read-only
// and safe for concurrent use.
type FaultyView struct {
	o     *Overlay
	dead  []bool           // by overlay node index; also the global ring's mask
	masks map[*Ring][]bool // the same failures by member index, per ring
	rm    *routeMetrics    // overlay instrumentation at view creation; may be nil
}

// WithFailures returns a view of the overlay in which dead[i] peers have
// failed. The slice is copied.
func (o *Overlay) WithFailures(dead []bool) (*FaultyView, error) {
	if len(dead) != o.N() {
		return nil, fmt.Errorf("core: dead mask has %d entries for %d peers", len(dead), o.N())
	}
	cp := make([]bool, len(dead))
	copy(cp, dead)
	alive := 0
	for _, d := range cp {
		if !d {
			alive++
		}
	}
	if alive == 0 {
		return nil, fmt.Errorf("core: all peers failed")
	}
	v := &FaultyView{o: o, dead: cp, masks: map[*Ring][]bool{o.global: cp}, rm: o.instr.Load()}
	for _, byName := range o.rings {
		for _, r := range byName {
			mask := make([]bool, r.Size())
			for m, gi := range r.Global {
				mask[m] = cp[gi]
			}
			v.masks[r] = mask
		}
	}
	return v, nil
}

// Alive reports whether peer i is alive in this view.
func (v *FaultyView) Alive(i int) bool { return !v.dead[i] }

// LiveOwner returns the first live peer at or after key on the global
// ring — where the key's responsibility lands after the failures.
func (v *FaultyView) LiveOwner(key id.ID) int {
	u := v.o.global.Table.SuccessorIndex(key)
	for i := 0; i < v.o.N(); i++ {
		if !v.dead[u] {
			return u
		}
		u = v.o.global.Table.Next(u)
	}
	return -1 // unreachable: WithFailures guarantees a live peer
}

// Route performs the hierarchical routing procedure under failures —
// Overlay.Route's loop with the view's masks. The originator must be
// alive. On success Dest is the key's live owner.
func (v *FaultyView) Route(from int, key id.ID) (RouteResult, error) {
	return v.o.route(from, key, v.o.cfg.Depth, v, v.rm)
}

// ChordRoute is the flat baseline under the same failures.
func (v *FaultyView) ChordRoute(from int, key id.ID) (RouteResult, error) {
	return v.o.route(from, key, 1, v, nil)
}
