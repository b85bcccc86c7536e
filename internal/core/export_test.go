package core

import (
	"math/rand"
	"slices"

	"repro/internal/topology"
)

// Assemble builds an overlay over nodes given whole — identifiers, hosts
// in net and ring names — instead of deriving them from net's hosts:
// Build's steps 4-6, so a test can stand an oracle over a live cluster's
// membership.
func Assemble(net *topology.Network, cfg Config, nodes []Node, rng *rand.Rand) (*Overlay, error) {
	o := &Overlay{cfg: cfg.withDefaults(), net: net, nodes: slices.Clone(nodes), ringTables: make(map[RingKey]*RingTable)}
	slices.SortFunc(o.nodes, func(a, b Node) int { return a.ID.Cmp(b.ID) })
	if err := o.assemble(rng); err != nil {
		return nil, err
	}
	return o, nil
}
