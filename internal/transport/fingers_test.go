package transport

import (
	"strconv"
	"testing"

	"repro/internal/id"
	"repro/internal/wire"
)

// TestFixFingersNeverNamesTooNearPeer builds the state a forming ring can
// be in: a names x its successor and has no predecessor yet, and x, which
// has a as its predecessor, names c its successor although c lies between
// a and x. A walk from a for a target past x then ends at x, which answers
// c, a peer less than 2^k past a. Finger k must not name it: it names a
// itself, and no slot names a peer closer than its 2^k.
func TestFixFingersNeverNamesTooNearPeer(t *testing.T) {
	// Three names in ring order a, c, x with x less than half the ring past
	// a, so that the target of slot 159 lies past x.
	var a, c, x string
	for i := 0; a == ""; i++ {
		for j := 0; j < i && a == ""; j++ {
			for k := 0; k < i && a == ""; k++ {
				p, q, r := "f"+strconv.Itoa(i), "f"+strconv.Itoa(j), "f"+strconv.Itoa(k)
				if id.Between(NodeID(q), NodeID(p), NodeID(r)) && id.Dist(NodeID(p), NodeID(r)).BitLen() < id.Bits {
					a, c, x = p, q, r
				}
			}
		}
	}
	dn := NewDirectNet()
	nodes := map[string]*Node{}
	for _, name := range []string{a, c, x} {
		nodes[name] = startNode(t, dn, name, Config{Depth: 1})
		if err := nodes[name].CreateNetwork(); err != nil {
			t.Fatal(err)
		}
	}
	set := func(n *Node, succ, pred wire.Peer) {
		n.mu.Lock()
		n.layers[0].succ, n.layers[0].pred = []wire.Peer{succ}, pred
		n.mu.Unlock()
	}
	set(nodes[a], peerFor(x), wire.Peer{})
	set(nodes[x], peerFor(c), peerFor(a))
	if err := nodes[a].BuildAllFingers(); err != nil {
		t.Fatal(err)
	}
	_, _, fingers := layerSnapshot(nodes[a], 1)
	self := NodeID(a)
	for k, p := range fingers {
		if p.Addr != "" && id.Between(peerID(p), self, id.AddPow2(self, uint(k))) {
			t.Errorf("finger %d of %s names %s, less than 2^%d past it", k, a, p.Addr, k)
		}
	}
}
