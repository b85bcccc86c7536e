package transport

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/id"
	"repro/internal/wire"
)

// flatClosest is the closest-preceding scan over a flat id.Bits array,
// the store fingerTable replaced: the oracle for TestFingerTableMatchesFlat.
func flatClosest(flat []wire.Peer, selfAddr string, self, key id.ID) (wire.Peer, bool) {
	for k := id.Bits - 1; k >= 0; k-- {
		f := flat[k]
		if f.Addr != "" && f.Addr != selfAddr && id.Between(peerID(f), self, key) {
			return f, true
		}
	}
	return wire.Peer{}, false
}

// TestFingerTableMatchesFlat: over seeded sequences of sets (runs of
// equal fingers, the shape fix_fingers writes, and scattered single
// slots), clears and purges, the compact table holds exactly what a flat
// 160-entry array would, and answers every closest-preceding scan as the
// flat array's scan does.
func TestFingerTableMatchesFlat(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		self := peerFor("self")
		pool := []wire.Peer{self}
		for i := 0; i < 12; i++ {
			pool = append(pool, peerFor(fmt.Sprintf("p%d", i)))
		}
		var tbl fingerTable
		flat := make([]wire.Peer, id.Bits)
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // a run of slots, as fix_fingers' range reuse fills them
				p := pool[rng.Intn(len(pool))]
				k := rng.Intn(id.Bits)
				for n := 1 + rng.Intn(24); n > 0 && k < id.Bits; n, k = n-1, k+1 {
					tbl.set(k, p)
					flat[k] = p
				}
			case op < 7:
				k := rng.Intn(id.Bits)
				tbl.set(k, wire.Peer{})
				flat[k] = wire.Peer{}
			case op < 8:
				dead := pool[rng.Intn(len(pool))].Addr
				want := false
				for k := range flat {
					if flat[k].Addr == dead {
						flat[k], want = wire.Peer{}, true
					}
				}
				if got := tbl.purge(dead); got != want {
					t.Fatalf("seed %d step %d: purge(%s) = %v, want %v", seed, step, dead, got, want)
				}
			default:
				k := rng.Intn(id.Bits)
				p := pool[rng.Intn(len(pool))]
				tbl.set(k, p)
				flat[k] = p
			}
			got := tbl.expand()
			for k := range flat {
				if got[k] != flat[k] {
					t.Fatalf("seed %d step %d: slot %d = %v, want %v", seed, step, k, got[k], flat[k])
				}
			}
			for q := 0; q < 8; q++ {
				var key id.ID
				rng.Read(key[:])
				g, gok := tbl.closestPreceding(self.Addr, peerID(self), key)
				w, wok := flatClosest(flat, self.Addr, peerID(self), key)
				if g != w || gok != wok {
					t.Fatalf("seed %d step %d: closestPreceding(%x) = %v %v, flat scan %v %v", seed, step, key[:4], g, gok, w, wok)
				}
			}
			refs := 0
			for _, p := range tbl.peers {
				if p.refs == 0 {
					t.Fatalf("seed %d step %d: entry %s kept with no slot naming it", seed, step, p.Addr)
				}
				refs += int(p.refs)
			}
			set := 0
			for _, f := range flat {
				if f.Addr != "" {
					set++
				}
			}
			if refs != set {
				t.Fatalf("seed %d step %d: entries count %d slot references, %d slots set", seed, step, refs, set)
			}
		}
	}
}
