package transport

import (
	"repro/internal/id"
	"repro/internal/wire"
)

// LayerSnapshot is one ring's routing state at a point in time.
type LayerSnapshot struct {
	Layer   int    // 1 = global ring
	Name    string // ring name; "" for the global ring
	Succ    []wire.Peer
	Pred    wire.Peer
	Fingers []wire.Peer // index k ~ successor(self + 2^k); zero Addr = unset
}

// Snapshot is a consistent copy of a node's checkable state, taken under
// the node mutex. Invariant checkers (internal/simcheck) work exclusively
// on snapshots so they never race with request handling; slices and maps
// are deep-copied and map-derived fields are sorted, so two runs of the
// same deterministic schedule produce identical snapshots.
type Snapshot struct {
	Addr      string
	ID        id.ID
	RingNames []string
	Joined    bool
	Layers    []LayerSnapshot
	Keys      []string         // stored kv keys, sorted
	Items     []wire.StoreItem // stored versioned items, key-sorted
	Tables    []wire.RingTable
	// Routes is the one-hop table's full event set, sorted by
	// (layer, ring, addr); nil unless the node runs RouteOneHop. Its
	// presence in the snapshot makes the quiescence fixpoint wait for
	// gossip convergence, and the route-table-accuracy invariant checks
	// it against live membership.
	Routes []wire.RouteEvent
}

// Snapshot captures the node's current state.
func (n *Node) Snapshot() Snapshot {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := Snapshot{
		Addr:      n.addr,
		ID:        n.id,
		RingNames: append([]string(nil), n.ringNames...),
		Joined:    n.joined,
		Layers:    make([]LayerSnapshot, len(n.layers)),
		Keys:      n.store.Keys(),
		Items:     n.store.Items(),
		Tables:    n.storedTablesLocked(),
	}
	for i, ls := range n.layers {
		layer := LayerSnapshot{
			Layer:   i + 1,
			Succ:    append([]wire.Peer(nil), ls.succ...),
			Pred:    ls.pred,
			Fingers: ls.fingers.Expand(),
		}
		if i > 0 && i-1 < len(n.ringNames) {
			layer.Name = n.ringNames[i-1]
		}
		s.Layers[i] = layer
	}
	if n.routes != nil {
		s.Routes = n.routes.Events()
	}
	return s
}

// GetLocal reads a key from this node's local store without routing,
// reporting whether it was present. Checkers use it to verify replica
// placement.
func (n *Node) GetLocal(key string) ([]byte, bool) {
	it, ok := n.store.Get(key)
	if !ok {
		return nil, false
	}
	out := make([]byte, len(it.Value))
	copy(out, it.Value)
	return out, true
}
