//go:build !race

package routes

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/id"
	"repro/internal/wire"
)

// maxMemberBytes is what one member of a one-hop table may hold,
// committed with under 20 % headroom over what
// TestAllocBudgetRouteTableMember measures (~282 B): at 1,000 one-hop
// nodes that is ~0.28 MB a node, the holder after a node's fixed ~21 KB
// and its ~2 KB per connection.
const maxMemberBytes = 330

// TestAllocBudgetRouteTableMember: the bytes a one-hop table holds per
// member, for 1,000 members of the global ring with its member index
// built — the table a live node keeps, which tracks no lower ring.
func TestAllocBudgetRouteTableMember(t *testing.T) {
	const members = 1000
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	tbl := New()
	for i := 0; i < members; i++ {
		addr := fmt.Sprintf("10.0.%d.%d:4000", i/250, i%250)
		p := wire.Peer{Addr: addr, ID: [20]byte(id.HashString(addr))}
		tbl.Apply(wire.RouteEvent{Layer: 1, Peer: p, Kind: wire.RouteJoin, Stamp: 1})
	}
	if _, ok := tbl.Owner(1, "", [20]byte{}); !ok {
		t.Fatal("no owner in the global ring")
	}
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	perMember := float64(int64(ms1.HeapAlloc)-int64(ms0.HeapAlloc)) / members
	runtime.KeepAlive(tbl)
	t.Logf("one member of a one-hop table: %.0f B", perMember)
	if perMember > maxMemberBytes {
		t.Errorf("one member of a one-hop table holds %.0f B, budget %d", perMember, maxMemberBytes)
	}
}

// TestAllocBudgetOwner: the one-hop tier's lookup is a binary search
// over the index and creates no garbage.
func TestAllocBudgetOwner(t *testing.T) {
	tbl := New()
	for i := 0; i < 32; i++ {
		tbl.Apply(wire.RouteEvent{Layer: 1, Peer: wire.Peer{Addr: fmt.Sprintf("n%d", i), ID: [20]byte{byte(i * 8)}}, Stamp: 1})
	}
	key := byte(0)
	avg := testing.AllocsPerRun(1000, func() {
		key += 37
		if _, ok := tbl.Owner(1, "", [20]byte{key}); !ok {
			t.Fatal("no owner in a populated ring")
		}
	})
	if avg != 0 {
		t.Errorf("Owner made %.1f heap objects, budget 0", avg)
	}
}
