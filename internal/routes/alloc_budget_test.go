//go:build !race

package routes

import (
	"fmt"
	"testing"

	"repro/internal/wire"
)

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
