package transport

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/binning"
	"repro/internal/chord"
	"repro/internal/id"
	"repro/internal/wire"
)

// Ideal is the state maintenance settles on, defined once (DESIGN §11):
// in every ring of every layer, Chord's exact state as the oracle's own
// table (chord.BuildTable) over the ring's members holds it, and the §3.1
// ring tables. members carry Addr, ID and RingNames. The result is in
// their order: each member joined with, per layer, the next
// min(succListLen, ring size - 1) members as its successor list, the one
// before it as its predecessor (a ring of one is both to itself) and
// successor(self + 2^k) in finger slot k; and the ring tables it stores,
// in Snapshot's order: a lower ring's four boundary extremes, at the
// global successor of the ring's identifier (binning.RingID).
func Ideal(members []Snapshot, succListLen int) ([]Snapshot, error) {
	out := make([]Snapshot, len(members))
	for i, m := range members {
		if len(m.RingNames) != len(members[0].RingNames) {
			return nil, fmt.Errorf("transport: %s is binned into %d rings, %s into %d",
				m.Addr, len(m.RingNames), members[0].Addr, len(members[0].RingNames))
		}
		out[i] = Snapshot{Addr: m.Addr, ID: m.ID, RingNames: m.RingNames, Joined: true, Layers: make([]LayerSnapshot, len(m.RingNames)+1)}
	}
	peer := func(t *chord.Table, j int) wire.Peer {
		return wire.Peer{Addr: members[t.Host(j)].Addr, ID: [20]byte(t.ID(j))}
	}
	var global *chord.Table
	for layer := 1; len(out) > 0 && layer <= len(out[0].Layers); layer++ {
		rings := map[string][]chord.Member{}
		for i, m := range members {
			name := append([]string{""}, m.RingNames...)[layer-1] // "" names the global ring
			rings[name] = append(rings[name], chord.Member{ID: m.ID, Host: i})
		}
		for _, name := range slices.Sorted(maps.Keys(rings)) {
			t, err := chord.BuildTable(rings[name], 0)
			if err != nil {
				return nil, fmt.Errorf("transport: layer %d ring %q: %w", layer, name, err)
			}
			for j := 0; j < t.Len(); j++ {
				ls := LayerSnapshot{Layer: layer, Name: name, Pred: peer(t, t.Prev(j)), Fingers: make([]wire.Peer, id.Bits)}
				for _, s := range t.SuccessorList(j, succListLen) {
					ls.Succ = append(ls.Succ, peer(t, s))
				}
				if t.Len() == 1 {
					ls.Succ = []wire.Peer{peer(t, j)}
				}
				for k := range ls.Fingers {
					ls.Fingers[k] = peer(t, t.Finger(j, uint(k)))
				}
				out[t.Host(j)].Layers[layer-1] = ls
			}
			if layer == 1 {
				global = t
				continue
			}
			b := t.Boundary()
			holder := &out[global.Host(global.SuccessorIndex(binning.RingID(layer, name)))]
			holder.Tables = append(holder.Tables, wire.RingTable{Layer: layer, Name: name,
				Smallest: peer(t, b[0]), SecondSm: peer(t, b[1]), Largest: peer(t, b[2]), SecondLg: peer(t, b[3])})
		}
	}
	return out, nil
}

// Install joins nodes, started and not yet joined, into the overlay they
// form, in the state Ideal defines, without a message: each node bins
// itself with its own landmark probes (exchanges beneath its RPC chain,
// see Prober), then every node is written its layers, the ring tables it
// stores and, running RouteOneHop, a route table with every node's join.
// What stabilization remembers between rounds (the successor it settled
// on, the storing node and table it last read, what neighbors agreed on)
// starts empty, so the first round afterwards asks what a settled round
// skips. Nodes must share Depth and SuccListLen.
func Install(nodes []*Node) error {
	snaps := make([]Snapshot, len(nodes))
	joins := make([]wire.RouteEvent, len(nodes))
	for i, n := range nodes {
		if c, c0 := n.cfg, nodes[0].cfg; c.Depth != c0.Depth || c.SuccListLen != c0.SuccListLen {
			return fmt.Errorf("transport: install: %s runs depth %d with %d successors, %s depth %d with %d",
				n.addr, c.Depth, c.SuccListLen, nodes[0].addr, c0.Depth, c0.SuccListLen)
		}
		if snaps[i] = n.Snapshot(); snaps[i].Joined {
			return fmt.Errorf("transport: install: %s has joined an overlay already", n.addr)
		}
		var err error
		if snaps[i].RingNames, err = n.computeRingNames(); err != nil {
			return err
		}
		joins[i] = wire.RouteEvent{Layer: 1, Peer: n.Self(), Kind: wire.RouteJoin, Stamp: wire.Stamp(n.cfg.Clock)}
	}
	ideal, err := Ideal(snaps, nodes[0].cfg.SuccListLen)
	if err != nil {
		return err
	}
	for i, n := range nodes {
		n.mu.Lock()
		n.ringNames, n.joined = ideal[i].RingNames, true
		n.landmarks = slices.Clone(n.cfg.Landmarks)
		for l, ls := range n.layers {
			want := ideal[i].Layers[l]
			ls.succ, ls.pred = want.Succ, want.Pred
			for k, f := range want.Fingers {
				ls.fingers.Set(k, f)
			}
		}
		for _, t := range ideal[i].Tables {
			n.tables[ringKey(t.Layer, t.Name)] = t
		}
		n.mu.Unlock()
		if n.routes != nil {
			n.routes.ApplyAll(joins)
		}
	}
	return nil
}
