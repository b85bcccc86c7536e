package hieras_test

import (
	"fmt"

	hieras "repro"
)

// Example builds a small two-layer HIERAS system on a simulated
// Transit-Stub internetwork and routes one lookup both hierarchically and
// over the flat Chord baseline.
func Example() {
	sys, err := hieras.New(hieras.Options{
		Model:     "ts",
		Nodes:     200,
		Landmarks: 4,
		Depth:     2,
		Seed:      1,
	})
	if err != nil {
		panic(err)
	}
	h, _ := sys.Lookup(0, "shared/movie.mkv")
	c, _ := sys.ChordLookup(0, "shared/movie.mkv")
	fmt.Printf("peers: %d, depth: %d\n", sys.N(), sys.Depth())
	fmt.Printf("same destination: %v\n", h.Dest == c.Dest)
	fmt.Printf("hieras used lower rings: %v\n", h.LowerHops > 0)
	// Output:
	// peers: 200, depth: 2
	// same destination: true
	// hieras used lower rings: true
}

// ExampleLookuper shows the unified lookup surface: the same measurement
// code runs against the plain system and a caching wrapper, because both
// implement hieras.Lookuper.
func ExampleLookuper() {
	sys, err := hieras.New(hieras.Options{Nodes: 200, Seed: 1})
	if err != nil {
		panic(err)
	}
	cached, err := sys.Cached(128, true)
	if err != nil {
		panic(err)
	}

	probe := func(name string, l hieras.Lookuper) {
		h, err := l.Lookup(0, "shared/movie.mkv")
		if err != nil {
			panic(err)
		}
		c, err := l.ChordLookup(0, "shared/movie.mkv")
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-8s delivered: %v, beats or matches chord hops: %v\n",
			name, h.Dest >= 0, h.Hops <= c.Hops+sys.Depth())
	}
	for _, s := range []struct {
		name string
		l    hieras.Lookuper
	}{{"plain", sys}, {"cached", cached}} {
		probe(s.name, s.l)
	}
	// Output:
	// plain    delivered: true, beats or matches chord hops: true
	// cached   delivered: true, beats or matches chord hops: true
}

// ExampleCachedSystem_Lookup demonstrates Route.CacheHit: the second
// lookup for a key is answered from the requester's location cache.
func ExampleCachedSystem_Lookup() {
	sys, err := hieras.New(hieras.Options{Nodes: 200, Seed: 1})
	if err != nil {
		panic(err)
	}
	cached, err := sys.Cached(64, false)
	if err != nil {
		panic(err)
	}
	first, _ := cached.Lookup(3, "popular-file")
	second, _ := cached.Lookup(3, "popular-file")
	fmt.Printf("first: hit=%v, second: hit=%v in %d hop(s)\n",
		first.CacheHit, second.CacheHit, second.Hops)
	fmt.Printf("same owner: %v\n", first.Dest == second.Dest)
	// Output:
	// first: hit=false, second: hit=true in 1 hop(s)
	// same owner: true
}
