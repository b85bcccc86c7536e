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
// different but equally long path; this pins the hops themselves, healthy
// and with a fifth of the peers dead.
//
// Regenerate (only when a change is MEANT to move paths):
//
//	go test ./internal/core -run TestRoutePathsPinned -v
//
// prints the got/want pair for every variant that differs.
func TestRoutePathsPinned(t *testing.T) {
	cases := []struct {
		name                string
		cfg                 Config
		route, chord        uint64
		faultyRoute, fChord uint64
	}{
		{"depth1", Config{Depth: 1},
			0xd0b4fa65e0d9167, 0xd0b4fa65e0d9167, 0x6e8984bd181b6783, 0x6e8984bd181b6783},
		{"depth2", Config{Depth: 2},
			0xf40632713918c875, 0xd0b4fa65e0d9167, 0x43390b8ccefdc028, 0x6e8984bd181b6783},
		{"depth3", Config{Depth: 3},
			0xd1d5b01d844e35cb, 0xd0b4fa65e0d9167, 0x29aea6beb0dd9616, 0x6e8984bd181b6783},
		{"depth2+pns", Config{Depth: 2, ProximityFingers: true},
			0x715c82737bfd9f5d, 0x80efa8fa7aa21c87, 0x1b763f46d52307b0, 0xea677104eff75391},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := buildOverlay(t, 200, tc.cfg, 90)
			rng := rand.New(rand.NewSource(91))
			dead := make([]bool, o.N())
			for killed := 0; killed < o.N()/5; {
				if i := rng.Intn(o.N()); !dead[i] {
					dead[i] = true
					killed++
				}
			}
			v, err := o.WithFailures(dead)
			if err != nil {
				t.Fatal(err)
			}
			hr, hc, fr, fc := fnv.New64a(), fnv.New64a(), fnv.New64a(), fnv.New64a()
			for i := 0; i < 2000; i++ {
				from := rng.Intn(o.N())
				key := id.Rand(rng)
				hashPath(hr, o.Route(from, key), nil)
				hashPath(hc, o.ChordRoute(from, key), nil)
				if dead[from] {
					continue
				}
				res, err := v.Route(from, key)
				hashPath(fr, res, err)
				res, err = v.ChordRoute(from, key)
				hashPath(fc, res, err)
			}
			for _, c := range []struct {
				what      string
				got, want uint64
			}{
				{"Route", hr.Sum64(), tc.route},
				{"ChordRoute", hc.Sum64(), tc.chord},
				{"FaultyView.Route", fr.Sum64(), tc.faultyRoute},
				{"FaultyView.ChordRoute", fc.Sum64(), tc.fChord},
			} {
				if c.got != c.want {
					t.Errorf("%s paths hash to %#x, pinned %#x", c.what, c.got, c.want)
				}
			}
		})
	}
}

// hashPath folds one routing result into h.
func hashPath(h hash.Hash64, res RouteResult, err error) {
	var buf [8]byte
	put := func(x int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(x)))
		h.Write(buf[:])
	}
	put(res.Origin)
	h.Write(res.Key[:])
	put(res.Dest)
	if err != nil {
		put(-1) // a failed route still pins how far it got
	}
	put(len(res.Hops))
	for _, hop := range res.Hops {
		put(hop.Layer)
		put(hop.From)
		put(hop.To)
	}
}
