package core

import (
	"fmt"

	"repro/internal/binning"
	"repro/internal/chord"
)

// CheckInvariants verifies the structural invariants HIERAS promises of
// every overlay (paper §3.1): the global ring covers all nodes with a
// correct Chord structure, each node is a member of exactly one ring per
// lower layer and that ring's name matches the node's landmark order,
// deeper rings refine shallower ones, every ring's own Chord structure is
// correct, and every ring has a ring table naming its true boundary
// members, stored at the ring id's global successor. The invariant
// harness runs this against oracle overlays built from random topologies.
func (o *Overlay) CheckInvariants() error {
	verify := (*chord.Table).Verify
	if o.cfg.ProximityFingers {
		verify = (*chord.Table).VerifyPNS
	}
	// checkRing holds for every ring, the global one included: a correct
	// Chord structure whose member m is overlay node Global[m].
	checkRing := func(r *Ring) error {
		if err := verify(r.Table); err != nil {
			return err
		}
		if len(r.Global) != r.Size() {
			return fmt.Errorf("maps %d members to %d global indexes", r.Size(), len(r.Global))
		}
		for m, gi := range r.Global {
			if r.Table.ID(m) != o.nodes[gi].ID {
				return fmt.Errorf("member %d id mismatch with node %d", m, gi)
			}
		}
		return nil
	}
	if o.global.Layer != 1 || o.global.Name != "" {
		return fmt.Errorf("core: global ring mislabelled as %d:%q", o.global.Layer, o.global.Name)
	}
	if o.global.Size() != len(o.nodes) {
		return fmt.Errorf("core: global ring has %d members, overlay has %d nodes",
			o.global.Size(), len(o.nodes))
	}
	if err := checkRing(o.global); err != nil {
		return fmt.Errorf("core: global ring: %w", err)
	}
	for i := range o.nodes {
		// Overlay node index == global member index: routing relies on it.
		if r, m := o.RingOf(i, 1); r != o.global || m != i || o.global.Global[i] != int32(i) {
			return fmt.Errorf("core: global ring does not map member %d to node %d", i, i)
		}
		if got := len(o.nodes[i].RingNames); got != o.cfg.Depth-1 {
			return fmt.Errorf("core: node %d belongs to %d lower rings, depth %d requires %d",
				i, got, o.cfg.Depth, o.cfg.Depth-1)
		}
	}

	for l := range o.rings {
		layer := l + 2
		covered := 0
		for name, r := range o.rings[l] {
			if r.Layer != layer || r.Name != name {
				return fmt.Errorf("core: ring %d:%q mislabelled as %d:%q", layer, name, r.Layer, r.Name)
			}
			if err := checkRing(r); err != nil {
				return fmt.Errorf("core: ring %d:%q: %w", layer, name, err)
			}
			for m, gi := range r.Global {
				nd := &o.nodes[gi]
				if nd.RingNames[l] != name {
					return fmt.Errorf("core: node %d sits in ring %d:%q but is binned into %q",
						gi, layer, name, nd.RingNames[l])
				}
				if ref := nd.rings[l]; ref.ring != r || ref.member != m {
					return fmt.Errorf("core: node %d ring reference for layer %d inconsistent", gi, layer)
				}
			}
			covered += r.Size()

			rt := o.ringTables[RingKey{Layer: layer, Name: name}]
			if rt == nil {
				return fmt.Errorf("core: ring %d:%q has no ring table", layer, name)
			}
			last := r.Size() - 1
			if rt.Smallest != r.Table.ID(0) || rt.Largest != r.Table.ID(last) {
				return fmt.Errorf("core: ring table %d:%q boundaries do not match the ring", layer, name)
			}
			if rt.StoredAt != o.global.Table.SuccessorIndex(rt.RingID) {
				return fmt.Errorf("core: ring table %d:%q stored at %d, want successor(%s) = %d",
					layer, name, rt.StoredAt, rt.RingID.Short(), o.global.Table.SuccessorIndex(rt.RingID))
			}
		}
		// Exactly-one-ring-per-layer: every node counted once.
		if covered != len(o.nodes) {
			return fmt.Errorf("core: layer %d rings cover %d of %d nodes", layer, covered, len(o.nodes))
		}
	}

	if o.cfg.Depth > 1 {
		names := make([][]string, len(o.nodes))
		for i := range o.nodes {
			names[i] = o.nodes[i].RingNames
		}
		if err := binning.CheckRefinement(names); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}
