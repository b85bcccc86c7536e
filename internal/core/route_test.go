package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/id"
)

func TestRouteReachesOwner(t *testing.T) {
	o := buildOverlay(t, 120, Config{Depth: 2, Landmarks: 4}, 20)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 500; trial++ {
		from := rng.Intn(o.N())
		key := id.Rand(rng)
		res := o.Route(from, key)
		want := o.Global().SuccessorIndex(key)
		if res.Dest != want {
			t.Fatalf("Dest = %d, want %d", res.Dest, want)
		}
		// The recorded path must actually end at the destination (or be
		// empty when the origin owns the key).
		if len(res.Hops) > 0 {
			if res.Hops[len(res.Hops)-1].To != res.Dest {
				t.Fatalf("path ends at %d, dest %d", res.Hops[len(res.Hops)-1].To, res.Dest)
			}
		} else if from != want {
			t.Fatal("empty path but origin is not the owner")
		}
	}
}

func TestRoutePathContiguous(t *testing.T) {
	o := buildOverlay(t, 100, Config{Depth: 3, Landmarks: 4}, 22)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		from := rng.Intn(o.N())
		res := o.Route(from, id.Rand(rng))
		cur := from
		var latSum, lowerLat float64
		lower := 0
		prevLayer := o.Depth() + 1
		for _, h := range res.Hops {
			if h.From != cur {
				t.Fatalf("discontiguous path at hop %+v (cur %d)", h, cur)
			}
			if h.Layer > prevLayer {
				t.Fatalf("layer increased from %d to %d: routing must climb", prevLayer, h.Layer)
			}
			prevLayer = h.Layer
			if h.Latency <= 0 {
				t.Fatalf("non-positive hop latency %v", h.Latency)
			}
			latSum += h.Latency
			if h.Layer >= 2 {
				lower++
				lowerLat += h.Latency
			}
			cur = h.To
		}
		if math.Abs(latSum-res.Latency) > 1e-9 {
			t.Fatalf("Latency %v != sum of hops %v", res.Latency, latSum)
		}
		if lower != res.LowerHops || math.Abs(lowerLat-res.LowerLatency) > 1e-9 {
			t.Fatal("lower-layer aggregates inconsistent")
		}
	}
}

func TestRouteOwnerZeroHops(t *testing.T) {
	o := buildOverlay(t, 50, Config{Depth: 2}, 24)
	for i := 0; i < o.N(); i++ {
		res := o.Route(i, o.Node(i).ID) // a node owns its own identifier
		if res.NumHops() != 0 || res.Dest != i {
			t.Fatalf("self-owned key took %d hops", res.NumHops())
		}
	}
}

// TestChordRouteMatchesTableLookup: the flat baseline is chord.Route
// entered at the global ring, and chord.Table.Lookup keeps its own count
// of the final forward; both must name the same owner in the same hops,
// all of them in layer 1.
func TestChordRouteMatchesTableLookup(t *testing.T) {
	o := buildOverlay(t, 80, Config{Depth: 2}, 25)
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 2000; trial++ {
		from := rng.Intn(o.N())
		key := id.Rand(rng)
		owner, hops := o.Global().Lookup(from, key, nil)
		if got := o.ChordRouteTotals(from, key); got.Dest != owner || got.Hops != hops {
			t.Fatalf("pair %d: ChordRouteTotals = %d in %d hops, Global().Lookup = %d in %d", trial, got.Dest, got.Hops, owner, hops)
		}
		res := o.ChordRoute(from, key)
		if res.Dest != owner || res.NumHops() != hops {
			t.Fatalf("pair %d: ChordRoute = %d in %d hops, Global().Lookup = %d in %d", trial, res.Dest, res.NumHops(), owner, hops)
		}
		for _, h := range res.Hops {
			if h.Layer != 1 {
				t.Fatal("Chord hops must all be layer 1")
			}
		}
	}
}

// TestPaperHeadlineClaims verifies the paper's central results at reduced
// scale: HIERAS routes have roughly Chord's hop count but far lower
// latency on a Transit-Stub network, with the majority of hops taken in
// lower-layer rings (§4.2, §4.3).
func TestPaperHeadlineClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	o := buildOverlay(t, 400, Config{Depth: 2, Landmarks: 4}, 27)
	rng := rand.New(rand.NewSource(28))
	const trials = 2000
	var hHops, cHops, hLat, cLat, lowHops float64
	for trial := 0; trial < trials; trial++ {
		from := rng.Intn(o.N())
		key := id.Rand(rng)
		h := o.Route(from, key)
		c := o.ChordRoute(from, key)
		if h.Dest != c.Dest {
			t.Fatal("HIERAS and Chord disagree on the owner")
		}
		hHops += float64(h.NumHops())
		cHops += float64(c.NumHops())
		hLat += h.Latency
		cLat += c.Latency
		lowHops += float64(h.LowerHops)
	}
	hopRatio := hHops / cHops
	latRatio := hLat / cLat
	lowerShare := lowHops / hHops
	t.Logf("hops ratio %.3f, latency ratio %.3f, lower-layer share %.3f", hopRatio, latRatio, lowerShare)
	if hopRatio < 0.95 || hopRatio > 1.35 {
		t.Errorf("hop ratio %.3f outside the paper's ballpark (~1.008-1.034)", hopRatio)
	}
	if latRatio > 0.85 {
		t.Errorf("latency ratio %.3f: HIERAS should clearly beat Chord (~0.52 in the paper)", latRatio)
	}
	if lowerShare < 0.40 {
		t.Errorf("only %.1f%% of hops in lower rings (paper: ~71%%)", 100*lowerShare)
	}
}

func TestDeeperHierarchyReducesLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	// Paper §4.5: going from depth 2 to depth 3 reduces latency further.
	lat := map[int]float64{}
	for _, depth := range []int{2, 3} {
		o := buildOverlay(t, 400, Config{Depth: depth, Landmarks: 6}, 29)
		rng := rand.New(rand.NewSource(30))
		var sum float64
		for trial := 0; trial < 1500; trial++ {
			res := o.Route(rng.Intn(o.N()), id.Rand(rng))
			sum += res.Latency
		}
		lat[depth] = sum / 1500
	}
	t.Logf("depth 2: %.1f ms, depth 3: %.1f ms", lat[2], lat[3])
	if lat[3] > lat[2]*1.05 {
		t.Errorf("depth 3 latency %.1f should not exceed depth 2 latency %.1f", lat[3], lat[2])
	}
}

func TestSuccessorListAcceleration(t *testing.T) {
	oFast := buildOverlay(t, 150, Config{Depth: 2, AccelerateWithSuccessorList: true, SuccessorListLen: 8}, 31)
	rng := rand.New(rand.NewSource(32))
	accelerated := 0
	for trial := 0; trial < 500; trial++ {
		from := rng.Intn(oFast.N())
		key := id.Rand(rng)
		res := oFast.Route(from, key)
		if res.Dest != oFast.Global().SuccessorIndex(key) {
			t.Fatal("accelerated route landed on the wrong owner")
		}
		if res.Accelerated {
			accelerated++
			// The shortcut must be the final hop.
			last := res.Hops[len(res.Hops)-1]
			if last.To != res.Dest || last.Layer != 1 {
				t.Fatal("shortcut hop malformed")
			}
		}
	}
	if accelerated == 0 {
		t.Error("acceleration never triggered with r=8 on 150 nodes")
	}
}

func TestRouteDeterministic(t *testing.T) {
	o := buildOverlay(t, 60, Config{Depth: 2}, 33)
	key := KeyID("determinism")
	r1 := o.Route(5, key)
	r2 := o.Route(5, key)
	if r1.NumHops() != r2.NumHops() || r1.Latency != r2.Latency {
		t.Error("identical routes differ")
	}
}

func BenchmarkRoute(b *testing.B) {
	for _, n := range []int{200, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			o := buildOverlay(b, n, Config{Depth: 2, Landmarks: 4}, 40)
			rng := rand.New(rand.NewSource(41))
			keys := make([]id.ID, 512)
			for i := range keys {
				keys[i] = id.Rand(rng)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.Route(i%n, keys[i%len(keys)])
			}
		})
	}
}

// TestTotalsMatchRoute: the hop-free entries are the same loop as the
// traced ones, so their totals are Route's to the bit, at every depth,
// with and without the successor-list shortcut.
func TestTotalsMatchRoute(t *testing.T) {
	same := func(t *testing.T, what string, got Totals, want RouteResult) {
		t.Helper()
		if got != want.Totals() {
			t.Fatalf("%s: totals %+v, traced entry's %+v", what, got, want.Totals())
		}
	}
	for depth := 1; depth <= 3; depth++ {
		for _, accel := range []bool{false, true} {
			o := buildOverlay(t, 90, Config{Depth: depth, AccelerateWithSuccessorList: accel}, 80)
			rng := rand.New(rand.NewSource(81))
			shortcuts := 0
			for trial := 0; trial < 300; trial++ {
				from := rng.Intn(o.N())
				key := id.Rand(rng)
				if trial%5 == 0 {
					key = o.Node(rng.Intn(o.N())).ID
				}
				what := fmt.Sprintf("depth %d accel %v from %d key %s", depth, accel, from, key.Short())
				tot := o.RouteTotals(from, key)
				if tot.Accelerated {
					shortcuts++
				}
				same(t, what+" Route", tot, o.Route(from, key))
				same(t, what+" ChordRoute", o.ChordRouteTotals(from, key), o.ChordRoute(from, key))
			}
			if accel && depth > 1 && shortcuts == 0 {
				t.Fatalf("depth %d: no route took the successor-list shortcut", depth)
			}
		}
	}
}
