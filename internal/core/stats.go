package core

import (
	"repro/internal/id"
)

// LayerStats summarises the rings of one lower layer.
type LayerStats struct {
	Layer    int
	Rings    int
	MinSize  int
	MaxSize  int
	MeanSize float64
}

// LayerStats returns per-layer ring statistics for layers 2..Depth.
func (o *Overlay) LayerStats() []LayerStats {
	out := make([]LayerStats, 0, len(o.rings))
	for l, byName := range o.rings {
		s := LayerStats{Layer: l + 2, Rings: len(byName)}
		if s.Rings > 0 {
			s.MinSize = 1 << 30
			total := 0
			for _, r := range byName {
				sz := r.Size()
				total += sz
				if sz < s.MinSize {
					s.MinSize = sz
				}
				if sz > s.MaxSize {
					s.MaxSize = sz
				}
			}
			s.MeanSize = float64(total) / float64(s.Rings)
		}
		out = append(out, s)
	}
	return out
}

// StateStats quantifies the per-node state HIERAS maintains compared with
// flat Chord — the overhead analysis the paper defers to future work
// (§3.4, §6).
type StateStats struct {
	Nodes int
	Depth int

	// FingerEntriesPerNode is the raw finger-table slots per node summed
	// over layers (id.Bits per layer).
	FingerEntriesPerNode int
	// DistinctFingersPerNode is the mean number of distinct peers in a
	// node's finger tables across all layers — the state that actually
	// needs liveness maintenance.
	DistinctFingersPerNode float64
	// DistinctFingersLayer1 is the same restricted to the global ring,
	// i.e. what plain Chord would maintain.
	DistinctFingersLayer1 float64
	// SuccessorListEntriesPerNode counts successor-list slots (r per
	// layer).
	SuccessorListEntriesPerNode int
	// Rings is the number of lower-layer rings; RingTables the ring
	// tables stored in the system (one per ring, plus replicas).
	Rings      int
	RingTables int
	// EstBytesPerNode is a rough routing-state footprint per node: 24
	// bytes (20-byte ID + 4-byte address) per distinct finger and
	// successor entry.
	EstBytesPerNode float64
}

// StateStats computes maintenance-state statistics for the overlay.
func (o *Overlay) StateStats() StateStats {
	s := StateStats{
		Nodes:                       o.N(),
		Depth:                       o.cfg.Depth,
		FingerEntriesPerNode:        o.cfg.Depth * id.Bits,
		SuccessorListEntriesPerNode: o.cfg.Depth * o.cfg.SuccessorListLen,
		Rings:                       o.NumRings(),
		RingTables:                  len(o.ringTables),
	}
	var distinctAll, distinctG int
	for i := range o.nodes {
		// The same peer appearing in two layers is still one liveness
		// probe target, so dedupe by global index across layers.
		seen := make(map[int32]struct{}, 32)
		for layer := 1; layer <= o.cfg.Depth; layer++ {
			ring, m := o.RingOf(i, layer)
			for k := uint(0); k < id.Bits; k++ {
				if f := ring.Table.Finger(m, k); f != m {
					seen[ring.Global[f]] = struct{}{}
				}
			}
			if layer == 1 {
				distinctG += len(seen)
			}
		}
		distinctAll += len(seen)
	}
	s.DistinctFingersPerNode = float64(distinctAll) / float64(o.N())
	s.DistinctFingersLayer1 = float64(distinctG) / float64(o.N())
	s.EstBytesPerNode = 24 * (s.DistinctFingersPerNode + float64(s.SuccessorListEntriesPerNode))
	return s
}
