package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/id"
)

// TestRoutePathsPinned hashes (origin, key, every Hop{Layer, From, To})
// over 2,000 seeded routes and compares with constants computed BEFORE the
// four route copies were merged into one loop (exact-finger variants at
// the parent of that change; the ProximityFingers one at the commit that
// made PNS sampling independent of the worker count, which moved those
// tables once). A counts-only comparison would let the merged loop pick a
// different but equally long path; this pins the hops themselves.
//
// Regenerate (only when a change is MEANT to move paths):
//
//	go test ./internal/core -run TestRoutePathsPinned -v
//
// prints the got/want pair for every variant that differs.
func TestRoutePathsPinned(t *testing.T) {
	cases := []struct {
		name         string
		cfg          Config
		route, chord uint64
	}{
		{"depth1", Config{Depth: 1}, 0xd0b4fa65e0d9167, 0xd0b4fa65e0d9167},
		{"depth2", Config{Depth: 2}, 0xf40632713918c875, 0xd0b4fa65e0d9167},
		{"depth3", Config{Depth: 3}, 0xd1d5b01d844e35cb, 0xd0b4fa65e0d9167},
		{"depth2+pns", Config{Depth: 2, ProximityFingers: true}, 0x715c82737bfd9f5d, 0x80efa8fa7aa21c87},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := buildOverlay(t, 200, tc.cfg, 90)
			rng := rand.New(rand.NewSource(91))
			// The pinned routes start after the draws that once chose a
			// fifth of the peers to fail: they are part of the stream.
			drawn := make([]bool, o.N())
			for killed := 0; killed < o.N()/5; {
				if i := rng.Intn(o.N()); !drawn[i] {
					drawn[i] = true
					killed++
				}
			}
			hr, hc := fnv.New64a(), fnv.New64a()
			for i := 0; i < 2000; i++ {
				from := rng.Intn(o.N())
				key := id.Rand(rng)
				hashPath(hr, o.Route(from, key))
				hashPath(hc, o.ChordRoute(from, key))
			}
			for _, c := range []struct {
				what      string
				got, want uint64
			}{
				{"Route", hr.Sum64(), tc.route},
				{"ChordRoute", hc.Sum64(), tc.chord},
			} {
				if c.got != c.want {
					t.Errorf("%s paths hash to %#x, pinned %#x", c.what, c.got, c.want)
				}
			}
		})
	}
}

// hashPath folds one routing result into h.
func hashPath(h hash.Hash64, res RouteResult) {
	var buf [8]byte
	put := func(x int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(x)))
		h.Write(buf[:])
	}
	put(res.Origin)
	h.Write(res.Key[:])
	put(res.Dest)
	put(len(res.Hops))
	for _, hop := range res.Hops {
		put(hop.Layer)
		put(hop.From)
		put(hop.To)
	}
}
