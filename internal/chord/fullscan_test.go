package chord

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/id"
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
// slot, top down.
func fullScanPreceding(t *Table, i int, key id.ID, dead []bool) int {
	for k := id.Bits - 1; k >= 0; k-- {
		f := int(t.fingers[i][k])
		if f != i && (dead == nil || !dead[f]) && id.Between(t.ids[f], t.ids[i], key) {
			return f
		}
	}
	return i
}

// fullScanWalk is Walk over fullScanPreceding.
func fullScanWalk(t *Table, from int, key id.ID, dead []bool, r int, visit func(from, to int)) (pred, succ, skips int, ok bool) {
	n := len(t.ids)
	if r > n-1 {
		r = n - 1
	}
	u := from
	for step := 0; step < 4*id.Bits; step++ {
		s := t.Next(u)
		if dead != nil {
			d := 1
			for ; d <= r && dead[(u+d)%n]; d++ {
				skips++
			}
			if d > r {
				return u, u, skips, false
			}
			s = (u + d) % n
		}
		if id.InOpenClosed(key, t.ids[u], t.ids[s]) {
			return u, s, skips, true
		}
		v := fullScanPreceding(t, u, key, dead)
		if v == u {
			v = s
		}
		if visit != nil {
			visit(u, v)
		}
		u = v
	}
	return u, u, skips, false
}

// TestWalkMatchesFullScan: BuildTable's one search per distinct finger
// gives the per-slot definition's fingers, and Walk's scan from the top
// bit of the key distance answers what the full 160-slot scan answers,
// hop for hop — on exact and proximity-chosen tables, healthy and with
// dead members, for keys at and next to member identifiers too.
func TestWalkMatchesFullScan(t *testing.T) {
	lat := func(a, b int) float64 { return float64((a*7919 + b*104729) % 997) }
	for _, n := range []int{1, 2, 3, 17, 256, 1000} {
		rng := rand.New(rand.NewSource(int64(n)))
		ms := makeMembers(rng, n)
		exact, err := BuildTable(ms, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if want := fullFingers(exact, i); !slices.Equal(exact.fingers[i], want) {
				t.Fatalf("n=%d member %d: fingers %v, per-slot definition %v", n, i, exact.fingers[i], want)
			}
		}
		pns, err := BuildTablePNS(ms, lat, 8, int64(n), 0)
		if err != nil {
			t.Fatal(err)
		}
		var masks [][]bool
		for _, share := range []int{0, 20, 50} {
			if share == 0 {
				masks = append(masks, nil)
				continue
			}
			m := make([]bool, n)
			for i := range m {
				m[i] = rng.Intn(100) < share
			}
			masks = append(masks, m)
		}
		for name, tbl := range map[string]*Table{"exact": exact, "pns": pns} {
			for mi, dead := range masks {
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
					r := 1 + rng.Intn(4)
					var got, want []int
					gp, gs, gk, gok := tbl.Walk(from, key, dead, r, func(f, to int) { got = append(got, f, to) })
					wp, ws, wk, wok := fullScanWalk(tbl, from, key, dead, r, func(f, to int) { want = append(want, f, to) })
					what := fmt.Sprintf("n=%d %s mask %d from %d key %s r=%d", n, name, mi, from, key.Short(), r)
					if gp != wp || gs != ws || gk != wk || gok != wok {
						t.Fatalf("%s: Walk = (%d, %d, %d, %v), full scan (%d, %d, %d, %v)", what, gp, gs, gk, gok, wp, ws, wk, wok)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s: Walk visited %v, full scan %v", what, got, want)
					}
				}
			}
		}
	}
}
