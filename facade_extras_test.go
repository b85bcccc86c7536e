package hieras

import (
	"errors"
	"fmt"
	"testing"
)

func TestCachedSystem(t *testing.T) {
	sys := newSmall(t)
	cs, err := sys.Cached(64, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, zeroErr := sys.Cached(0, false); zeroErr == nil {
		t.Error("zero capacity accepted")
	}
	r1, err := cs.Lookup(3, "popular")
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit {
		t.Error("first lookup cannot hit")
	}
	r2, err := cs.Lookup(3, "popular")
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit || r2.Dest != r1.Dest || r2.Hops > 1 {
		t.Errorf("second lookup should be a 1-hop hit: %+v", r2)
	}
	if cs.HitRate() != 0.5 {
		t.Errorf("hit rate %v", cs.HitRate())
	}
	if _, err := cs.Lookup(-1, "x"); !errors.Is(err, ErrOriginOutOfRange) {
		t.Errorf("bad origin: err = %v, want ErrOriginOutOfRange", err)
	}
	if c, err := cs.ChordLookup(3, "popular"); err != nil || c.CacheHit {
		t.Errorf("chord baseline must bypass the cache: %+v err=%v", c, err)
	}
}

// TestCachedMissKeepsLowerLayerAccounting guards the facade against the
// old 3-value Lookup signature silently dropping LowerHops/LowerLatency.
func TestCachedMissKeepsLowerLayerAccounting(t *testing.T) {
	sys := newSmall(t)
	cs, err := sys.Cached(32, false)
	if err != nil {
		t.Fatal(err)
	}
	lowerHops, lowerLat := 0, 0.0
	for i := 0; i < 80; i++ {
		r, err := cs.Lookup(i%sys.N(), fmt.Sprintf("cold-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if r.CacheHit {
			continue
		}
		lowerHops += r.LowerHops
		lowerLat += r.LowerLatency
	}
	if lowerHops == 0 || lowerLat == 0 {
		t.Errorf("cached misses on a depth-%d system must report lower-layer work: %d hops, %.1f ms",
			sys.Depth(), lowerHops, lowerLat)
	}
}

func TestOneHopSystem(t *testing.T) {
	sys := newSmall(t)
	oh := sys.OneHop()
	// The converged table names every owner correctly, so every lookup is
	// a single hop to the owner the full route reaches.
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("k-%d", i)
		r, err := oh.Lookup(i%sys.N(), key)
		if err != nil {
			t.Fatal(err)
		}
		full, err := sys.Lookup(i%sys.N(), key)
		if err != nil {
			t.Fatal(err)
		}
		if !r.CacheHit || r.Hops > 1 || r.Dest != full.Dest {
			t.Fatalf("lookup %d not a 1-hop table answer: %+v (full dest %d)", i, r, full.Dest)
		}
	}
	if _, err := oh.Lookup(-1, "x"); !errors.Is(err, ErrOriginOutOfRange) {
		t.Errorf("bad origin: err = %v, want ErrOriginOutOfRange", err)
	}
	if c, err := oh.ChordLookup(3, "k-1"); err != nil || c.CacheHit {
		t.Errorf("chord baseline must bypass the table: %+v err=%v", c, err)
	}
}
