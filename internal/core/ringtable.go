package core

import (
	"fmt"

	"repro/internal/id"
)

// RingKey identifies a lower-layer P2P ring.
type RingKey struct {
	Layer int
	Name  string
}

// RingID derives the ring identifier: the collision-free hash of the ring
// name (paper §3.1), qualified by layer so equal order strings in
// different layers map to distinct rings.
func (k RingKey) RingID() id.ID {
	return id.HashString(fmt.Sprintf("ring:%d:%s", k.Layer, k.Name))
}

// RingTable is the paper's ring table (§3.1, Table 3): stored on the node
// whose identifier is numerically closest to the ring id, it records four
// boundary members of the ring — enough for a joining node to find a peer
// inside the ring. It is duplicated on several successors for fault
// tolerance.
type RingTable struct {
	Key    RingKey
	RingID id.ID

	// Boundary member identifiers. For rings smaller than four members,
	// entries repeat (the table still names live members).
	Smallest, SecondSmallest, Largest, SecondLargest id.ID

	// StoredAt is the overlay node index of successor(RingID); Replicas
	// are the following r nodes holding duplicates.
	StoredAt int
	Replicas []int
}

// Contains reports whether x is one of the table's boundary entries.
func (rt *RingTable) Contains(x id.ID) bool {
	return x == rt.Smallest || x == rt.SecondSmallest || x == rt.Largest || x == rt.SecondLargest
}

// boundaryFromSorted fills the four boundary entries from a ring's sorted
// member identifiers.
func (rt *RingTable) boundaryFromSorted(ids []id.ID) {
	n := len(ids)
	rt.Smallest = ids[0]
	rt.Largest = ids[n-1]
	if n >= 2 {
		rt.SecondSmallest = ids[1]
		rt.SecondLargest = ids[n-2]
	} else {
		rt.SecondSmallest = ids[0]
		rt.SecondLargest = ids[0]
	}
}

// buildRingTables derives every ring table of the overlay.
func (o *Overlay) buildRingTables() {
	for _, layerRings := range o.rings {
		for _, r := range layerRings {
			key := RingKey{Layer: r.Layer, Name: r.Name}
			rt := &RingTable{Key: key, RingID: key.RingID()}
			ids := make([]id.ID, r.Size())
			for i := range ids {
				ids[i] = r.Table.ID(i)
			}
			rt.boundaryFromSorted(ids)
			rt.StoredAt = o.global.Table.SuccessorIndex(rt.RingID)
			rt.Replicas = o.global.Table.SuccessorList(rt.StoredAt, o.cfg.SuccessorListLen)
			o.ringTables[key] = rt
		}
	}
}

// RingTable returns the ring table for a ring, or nil if the ring does not
// exist.
func (o *Overlay) RingTable(layer int, name string) *RingTable {
	return o.ringTables[RingKey{Layer: layer, Name: name}]
}

// RingTables returns all ring tables keyed by ring.
func (o *Overlay) RingTables() map[RingKey]*RingTable { return o.ringTables }
