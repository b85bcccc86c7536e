package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/topology"
	"repro/internal/topology/transitstub"
	"repro/internal/workload"
)

func testOverlay(t testing.TB, hosts int, seed int64) *core.Overlay {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m, err := transitstub.Generate(transitstub.DefaultConfig(hosts), rng)
	if err != nil {
		t.Fatal(err)
	}
	net, err := topology.Attach(m, m.G, topology.AttachOptions{
		Hosts: hosts, Routers: m.StubRouters, Spread: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	o, err := core.Build(net, core.Config{Depth: 2, Landmarks: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestNewErrors(t *testing.T) {
	o := testOverlay(t, 30, 1)
	if _, err := New(o, 0, CacheAtOrigin); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestLookupCorrectWithAndWithoutCache(t *testing.T) {
	o := testOverlay(t, 100, 2)
	v, err := New(o, 64, CacheAtOrigin)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		from := rng.Intn(o.N())
		key := id.Rand(rng)
		first := v.Lookup(from, key)
		want := o.Global().SuccessorIndex(key)
		if first.Dest != want || first.Hit {
			t.Fatalf("first lookup: dest %d (want %d) hit=%v", first.Dest, want, first.Hit)
		}
		second := v.Lookup(from, key)
		if second.Dest != want || !second.Hit {
			t.Fatalf("second lookup should hit cache: dest %d hit=%v", second.Dest, second.Hit)
		}
		if second.NumHops() > 1 {
			t.Fatalf("cache hit took %d hops", second.NumHops())
		}
	}
	hits, misses := v.Stats()
	if hits != 200 || misses != 200 {
		t.Errorf("hits/misses = %d/%d", hits, misses)
	}
	if v.HitRate() != 0.5 {
		t.Errorf("hit rate = %v", v.HitRate())
	}
}

func TestMissCarriesLowerLayerAccounting(t *testing.T) {
	o := testOverlay(t, 120, 3)
	v, _ := New(o, 16, CacheAtOrigin)
	rng := rand.New(rand.NewSource(13))
	lowerHops, lowerLat := 0, 0.0
	for trial := 0; trial < 100; trial++ {
		res := v.Lookup(rng.Intn(o.N()), id.Rand(rng))
		if res.Hit {
			continue
		}
		lowerHops += res.LowerHops
		lowerLat += res.LowerLatency
	}
	if lowerHops == 0 || lowerLat == 0 {
		t.Errorf("misses on a depth-2 overlay must surface lower-layer hops: %d hops, %.1f ms",
			lowerHops, lowerLat)
	}
}

func TestSelfOwnedHitZeroCost(t *testing.T) {
	o := testOverlay(t, 50, 4)
	v, _ := New(o, 8, CacheAtOrigin)
	// A node looking up its own ID owns the key.
	key := o.Node(7).ID
	_ = v.Lookup(7, key)
	res := v.Lookup(7, key)
	if !res.Hit || res.NumHops() != 0 || res.Latency != 0 {
		t.Errorf("self-owned hit should be free: %+v", res)
	}
}

func TestCacheAlongPathSeedsIntermediates(t *testing.T) {
	o := testOverlay(t, 150, 5)
	v, _ := New(o, 64, CacheAlongPath)
	rng := rand.New(rand.NewSource(6))
	// Find a lookup with at least 2 hops.
	var from int
	var key id.ID
	var mid int
	for {
		from = rng.Intn(o.N())
		key = id.Rand(rng)
		route := o.Route(from, key)
		if route.NumHops() >= 2 {
			mid = route.Hops[0].To
			break
		}
	}
	_ = v.Lookup(from, key)
	res := v.Lookup(mid, key)
	if !res.Hit {
		t.Error("intermediate peer should have been seeded by path caching")
	}
}

func TestZipfWorkloadHitRate(t *testing.T) {
	o := testOverlay(t, 120, 7)
	v, _ := New(o, 128, CacheAtOrigin)
	gen, err := workload.NewZipf(8, o.N(), 500, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	var missLat, hitLat float64
	var hitN, missN int
	for i := 0; i < 6000; i++ {
		req := gen.Next()
		res := v.Lookup(req.Origin, req.Key)
		if res.Hit {
			hitLat += res.Latency
			hitN++
		} else {
			missLat += res.Latency
			missN++
		}
	}
	if v.HitRate() < 0.2 {
		t.Errorf("zipf hit rate %.2f too low", v.HitRate())
	}
	if hitN > 0 && missN > 0 && hitLat/float64(hitN) >= missLat/float64(missN) {
		t.Errorf("hits (%.1f ms) should be cheaper than misses (%.1f ms)",
			hitLat/float64(hitN), missLat/float64(missN))
	}
}

func TestEntriesBounded(t *testing.T) {
	o := testOverlay(t, 40, 10)
	v, _ := New(o, 4, CacheAtOrigin)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		_ = v.Lookup(5, id.Rand(rng))
	}
	if v.Entries(5) > 4 {
		t.Errorf("cache grew past capacity: %d", v.Entries(5))
	}
}

func TestPolicyString(t *testing.T) {
	if CacheAtOrigin.String() != "origin" || CacheAlongPath.String() != "path" {
		t.Error("policy strings wrong")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy should render")
	}
}

func TestConcurrentLookups(t *testing.T) {
	o := testOverlay(t, 80, 12)
	v, _ := New(o, 64, CacheAlongPath)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 300; i++ {
				key := id.HashString(fmt.Sprintf("shared-%d", i%50))
				res := v.Lookup(rng.Intn(o.N()), key)
				if res.Dest != o.Global().SuccessorIndex(key) {
					done <- fmt.Errorf("wrong dest under concurrency")
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
