package chord

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/id"
	"repro/internal/wire"
)

// fullFingers is the definition BuildTable implements: one
// SuccessorIndex per slot.
func fullFingers(t *Table, i int) []int32 {
	f := make([]int32, id.Bits)
	for k := uint(0); k < id.Bits; k++ {
		f[k] = int32(t.SuccessorIndex(id.AddPow2(t.ids[i], k)))
	}
	return f
}

// fullScanPreceding is closest_preceding_finger as Chord states it: every
// set slot, top down.
func fullScanPreceding(t *Table, i int, key id.ID) int {
	for k := id.Bits - 1; k >= 0; k-- {
		f := t.fingers[i].Get(k)
		if t.fingers[i].slot[k] != 0 && int(f) != i && id.Between(t.ids[f], t.ids[i], key) {
			return int(f)
		}
	}
	return i
}

// fullScanWalk is Walk over fullScanPreceding.
func fullScanWalk(t *Table, from int, key id.ID, visit func(from, to int)) (pred, succ int) {
	for u := from; ; {
		s := t.Next(u)
		if id.InOpenClosed(key, t.ids[u], t.ids[s]) {
			return u, s
		}
		v := fullScanPreceding(t, u, key)
		if v == u {
			v = s
		}
		if visit != nil {
			visit(u, v)
		}
		u = v
	}
}

// livePeer names a member as a live node does.
func livePeer(addr string) wire.Peer {
	return wire.Peer{Addr: addr, ID: [20]byte(id.HashTagged("live:", addr))}
}

func peerID(p wire.Peer) id.ID { return id.ID(p.ID) }

// flatClosest is the closest-preceding scan over a flat id.Bits array of
// slots, unset ones zero, skipping the node's own address.
func flatClosest(flat []wire.Peer, self wire.Peer, key id.ID) (wire.Peer, bool) {
	for k := id.Bits - 1; k >= 0; k-- {
		f := flat[k]
		if f.Addr != "" && f.Addr != self.Addr && id.Between(peerID(f), peerID(self), key) {
			return f, true
		}
	}
	return wire.Peer{}, false
}

// TestWalkMatchesFullScan holds the one finger table and its one scan to
// the per-slot definitions, for the oracle's and the live node's finger
// types.
//
// defined: on tables that meet Chord's finger definition — BuildTable's
// (one search per distinct finger, checked against one SuccessorIndex
// per slot), BuildTablePNS's, and BuildTable's with slots unset, as a
// live node's table is before fix_fingers has filled it — Walk's scan
// from the top bit of the key distance answers what the full 160-slot
// scan answers, hop for hop, for keys at and next to member identifiers
// too.
//
// arbitrary: over seeded sequences of sets (runs of equal fingers, the
// shape fix_fingers writes, and scattered single slots), clears and
// purges, the compact table holds exactly what a flat 160-entry array
// would, and answers every closest-preceding scan as the flat array's
// full scan does. The sets draw only fingers that meet the definition
// in their slot, as every writer's do: the scan from the top bit of the
// key distance is exact only on those.
func TestWalkMatchesFullScan(t *testing.T) {
	t.Run("defined", func(t *testing.T) {
		lat := func(a, b int) float64 { return float64((a*7919 + b*104729) % 997) }
		for _, n := range []int{1, 2, 3, 17, 256, 1000} {
			rng := rand.New(rand.NewSource(int64(n)))
			ms := makeMembers(rng, n)
			exact, err := BuildTable(ms, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if got, want := exact.fingers[i].Expand(), fullFingers(exact, i); !slices.Equal(got, want) {
					t.Fatalf("n=%d member %d: fingers %v, per-slot definition %v", n, i, got, want)
				}
			}
			pns, err := BuildTablePNS(ms, lat, 8, int64(n), 0)
			if err != nil {
				t.Fatal(err)
			}
			sparse, err := BuildTable(ms, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range sparse.fingers {
				for k := 0; k < id.Bits; k++ {
					if rng.Intn(3) == 0 {
						sparse.fingers[i].Clear(k)
					}
				}
			}
			for _, tc := range []struct {
				name string
				tbl  *Table
			}{{"exact", exact}, {"pns", pns}, {"sparse", sparse}} {
				tbl := tc.tbl
				for trial := 0; trial < 400; trial++ {
					from := rng.Intn(n)
					key := id.Rand(rng)
					switch trial % 4 {
					case 1:
						key = tbl.ID(rng.Intn(n))
					case 2:
						key = id.Add(tbl.ID(rng.Intn(n)), id.FromUint64(1))
					case 3:
						key = tbl.ID(from)
					}
					var got, want []int
					gp, gs := tbl.Walk(from, key, func(f, to int) { got = append(got, f, to) })
					wp, ws := fullScanWalk(tbl, from, key, func(f, to int) { want = append(want, f, to) })
					what := fmt.Sprintf("n=%d %s from %d key %s", n, tc.name, from, key.Short())
					if gp != wp || gs != ws {
						t.Fatalf("%s: Walk = (%d, %d), full scan (%d, %d)", what, gp, gs, wp, ws)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s: Walk visited %v, full scan %v", what, got, want)
					}
				}
			}
		}
	})

	t.Run("arbitrary", func(t *testing.T) {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			self := livePeer("self")
			isSelf := func(p wire.Peer) bool { return p.Addr == self.Addr }
			pool := []wire.Peer{self}
			for i := 0; i < 12; i++ {
				pool = append(pool, livePeer(fmt.Sprintf("p%d", i)))
			}
			// slots(p) is how many slots from the bottom p may fill: slot k
			// names a peer at least 2^k past self, or self.
			slots := func(p wire.Peer) int {
				if isSelf(p) {
					return id.Bits
				}
				return id.Dist(peerID(self), peerID(p)).BitLen()
			}
			var tbl Fingers[wire.Peer]
			flat := make([]wire.Peer, id.Bits)
			for step := 0; step < 400; step++ {
				switch op := rng.Intn(10); {
				case op < 5: // a run of slots, as fix_fingers' range reuse fills them
					p := pool[rng.Intn(len(pool))]
					k := rng.Intn(slots(p))
					for n := 1 + rng.Intn(24); n > 0 && k < slots(p); n, k = n-1, k+1 {
						tbl.Set(k, p)
						flat[k] = p
					}
				case op < 7:
					k := rng.Intn(id.Bits)
					tbl.Clear(k)
					flat[k] = wire.Peer{}
				case op < 8:
					dead := pool[rng.Intn(len(pool))].Addr
					want := false
					for k := range flat {
						if flat[k].Addr == dead {
							flat[k], want = wire.Peer{}, true
						}
					}
					if got := tbl.Purge(func(p wire.Peer) bool { return p.Addr == dead }); got != want {
						t.Fatalf("seed %d step %d: purge(%s) = %v, want %v", seed, step, dead, got, want)
					}
				default:
					p := pool[rng.Intn(len(pool))]
					k := rng.Intn(slots(p))
					tbl.Set(k, p)
					flat[k] = p
				}
				if got := tbl.Expand(); !slices.Equal(got, flat) {
					t.Fatalf("seed %d step %d: slots %v, want %v", seed, step, got, flat)
				}
				for q := 0; q < 8; q++ {
					var key id.ID
					rng.Read(key[:])
					g, gok := tbl.ClosestPreceding(peerID(self), key, peerID, isSelf)
					w, wok := flatClosest(flat, self, key)
					if g != w || gok != wok {
						t.Fatalf("seed %d step %d: ClosestPreceding(%x) = %v %v, flat scan %v %v", seed, step, key[:4], g, gok, w, wok)
					}
				}
				refs := 0
				for _, e := range tbl.entries {
					if e.refs == 0 {
						t.Fatalf("seed %d step %d: entry %s kept with no slot naming it", seed, step, e.ref.Addr)
					}
					refs += int(e.refs)
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
	})
}
