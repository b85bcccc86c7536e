package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/id"
	"repro/internal/metrics"
)

func TestWithFailuresValidation(t *testing.T) {
	o := buildOverlay(t, 30, Config{Depth: 2}, 70)
	if _, err := o.WithFailures(make([]bool, 5)); err == nil {
		t.Error("wrong mask length accepted")
	}
	all := make([]bool, o.N())
	for i := range all {
		all[i] = true
	}
	if _, err := o.WithFailures(all); err == nil {
		t.Error("all-dead mask accepted")
	}
}

// TestNoFailuresMatchesPlainRoute: an all-false mask and no mask must be
// the same walk — same hops in the same rings at the same latency — and
// the faulty view then counts no failure handling: no dead successor
// bridged, no lower-ring walk abandoned (a ring of one is its own live
// successor).
func TestNoFailuresMatchesPlainRoute(t *testing.T) {
	for depth := 1; depth <= 3; depth++ {
		reg := metrics.NewRegistry()
		o := buildOverlay(t, 80, Config{Depth: depth, Metrics: reg}, 71)
		v, err := o.WithFailures(make([]bool, o.N()))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(72))
		for trial := 0; trial < 200; trial++ {
			from := rng.Intn(o.N())
			key := id.Rand(rng)
			fr, err := v.Route(from, key)
			if err != nil {
				t.Fatal(err)
			}
			if plain := o.Route(from, key); !reflect.DeepEqual(fr, plain) {
				t.Fatalf("depth %d: healthy faulty view differs from plain route:\n%+v\nvs\n%+v", depth, fr, plain)
			}
			cf, err := v.ChordRoute(from, key)
			if err != nil {
				t.Fatal(err)
			}
			if pc := o.ChordRoute(from, key); !reflect.DeepEqual(cf, pc) {
				t.Fatalf("depth %d: healthy faulty chord view differs from plain:\n%+v\nvs\n%+v", depth, cf, pc)
			}
		}
		var b strings.Builder
		if _, err := reg.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"failure_layer_aborts_total ", "failure_succ_skips_total "} {
			if got := afterPrefix(t, b.String(), name); got != "0" {
				t.Errorf("depth %d: %s= %s on an all-live mask, want 0", depth, name, got)
			}
		}
	}
}

func TestRoutesAroundFailures(t *testing.T) {
	o := buildOverlay(t, 150, Config{Depth: 2, SuccessorListLen: 8}, 73)
	rng := rand.New(rand.NewSource(74))
	dead := make([]bool, o.N())
	killed := 0
	for killed < o.N()/5 { // 20% dead
		i := rng.Intn(o.N())
		if !dead[i] {
			dead[i] = true
			killed++
		}
	}
	v, err := o.WithFailures(dead)
	if err != nil {
		t.Fatal(err)
	}
	okRoutes := 0
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		from := rng.Intn(o.N())
		if dead[from] {
			continue
		}
		key := id.Rand(rng)
		res, err := v.Route(from, key)
		if err != nil {
			continue
		}
		okRoutes++
		if dead[res.Dest] {
			t.Fatal("route delivered to a dead peer")
		}
		if res.Dest != v.LiveOwner(key) {
			t.Fatalf("dest %d, live owner %d", res.Dest, v.LiveOwner(key))
		}
		// Path never visits a dead peer.
		for _, h := range res.Hops {
			if dead[h.From] || dead[h.To] {
				t.Fatal("path traversed a dead peer")
			}
		}
	}
	if okRoutes < trials*7/10 {
		t.Fatalf("only %d/%d routes survived 20%% failures with r=8", okRoutes, trials)
	}
}

func TestFaultyRouteFromDeadPeerRejected(t *testing.T) {
	o := buildOverlay(t, 40, Config{Depth: 2}, 75)
	dead := make([]bool, o.N())
	dead[3] = true
	v, _ := o.WithFailures(dead)
	if _, err := v.Route(3, id.HashString("x")); err == nil {
		t.Error("route from dead peer accepted")
	}
	if _, err := v.ChordRoute(3, id.HashString("x")); err == nil {
		t.Error("chord route from dead peer accepted")
	}
}

func TestLiveOwnerSkipsDead(t *testing.T) {
	o := buildOverlay(t, 50, Config{Depth: 2}, 76)
	dead := make([]bool, o.N())
	// Kill the true owner of a key; the live owner must be a later node.
	key := id.HashString("victim-key")
	trueOwner := o.Global().SuccessorIndex(key)
	dead[trueOwner] = true
	v, _ := o.WithFailures(dead)
	lo := v.LiveOwner(key)
	if lo == trueOwner {
		t.Fatal("live owner is dead")
	}
	if !v.Alive(lo) {
		t.Fatal("Alive() inconsistent")
	}
	// And routing reaches it.
	from := (trueOwner + 5) % o.N()
	res, err := v.Route(from, key)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dest != lo {
		t.Fatalf("dest %d, want %d", res.Dest, lo)
	}
}

func TestChordAndHierasSurviveEqually(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	o := buildOverlay(t, 200, Config{Depth: 2, SuccessorListLen: 8}, 77)
	rng := rand.New(rand.NewSource(78))
	dead := make([]bool, o.N())
	for killed := 0; killed < o.N()/10; {
		i := rng.Intn(o.N())
		if !dead[i] {
			dead[i] = true
			killed++
		}
	}
	v, _ := o.WithFailures(dead)
	var hOK, cOK, trials int
	for trial := 0; trial < 500; trial++ {
		from := rng.Intn(o.N())
		if dead[from] {
			continue
		}
		trials++
		key := id.Rand(rng)
		if _, err := v.Route(from, key); err == nil {
			hOK++
		}
		if _, err := v.ChordRoute(from, key); err == nil {
			cOK++
		}
	}
	t.Logf("10%% failures: hieras %d/%d, chord %d/%d", hOK, trials, cOK, trials)
	// HIERAS inherits Chord's resilience (paper §3.3): success rates must
	// be comparable.
	if float64(hOK) < 0.9*float64(cOK) {
		t.Errorf("hieras success %d markedly below chord %d", hOK, cOK)
	}
}
