//go:build !race

package chord

import (
	"fmt"
	"testing"

	"repro/internal/id"
	"repro/internal/wire"
)

// TestAllocBudgetFingerTable: a closest-preceding scan creates no heap
// object, and neither does a fix_fingers round that rewrites fingers to
// the peers they already name or to a peer another slot names.
func TestAllocBudgetFingerTable(t *testing.T) {
	self := livePeer("self")
	isSelf := func(p wire.Peer) bool { return p.Addr == self.Addr }
	var tbl Fingers[wire.Peer]
	owners := make([]wire.Peer, id.Bits)
	for k := range owners {
		owners[k] = livePeer(fmt.Sprintf("p%d", k/20)) // 8 distinct fingers, in runs
		tbl.Set(k, owners[k])
	}
	keys := make([]id.ID, 64)
	for i := range keys {
		keys[i] = id.HashTagged("key:", fmt.Sprintf("scan-%d", i))
	}
	i := 0
	if avg := testing.AllocsPerRun(500, func() {
		_, _ = tbl.ClosestPreceding(peerID(self), keys[i%len(keys)], peerID, isSelf)
		i++
	}); avg != 0 {
		t.Errorf("a closest-preceding scan made %.1f heap objects, budget 0", avg)
	}
	if avg := testing.AllocsPerRun(50, func() {
		for k := range owners {
			tbl.Set(k, owners[k])
		}
	}); avg != 0 {
		t.Errorf("rewriting unchanged fingers made %.1f heap objects, budget 0", avg)
	}
	if avg := testing.AllocsPerRun(50, func() {
		tbl.Set(0, owners[id.Bits-1])
		tbl.Set(0, owners[0])
	}); avg != 0 {
		t.Errorf("pointing a slot at a finger another slot names made %.1f heap objects, budget 0", avg)
	}
}
