package churn

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/lint/leakcheck"
	"repro/internal/topology"
	"repro/internal/topology/transitstub"
)

// TestRunDeterminismProperty: a churn run is a pure function of
// (topology, config) — same seed, same Result, across several seeds and
// depths. The whole replay story (and the invariant harness's shrinking)
// rests on this.
func TestRunDeterminismProperty(t *testing.T) {
	leakcheck.Watchdog(t, 3*time.Minute) // eight live runs: the package's longest test
	build := func(seed int64) *topology.Network {
		rng := rand.New(rand.NewSource(seed))
		m, err := transitstub.Generate(transitstub.DefaultConfig(40), rng)
		if err != nil {
			t.Fatal(err)
		}
		net, err := topology.Attach(m, m.G, topology.AttachOptions{
			Hosts: 40, Routers: m.StubRouters, Spread: true,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	for _, tc := range []struct {
		seed  int64
		depth int
	}{{101, 1}, {102, 2}, {103, 2}, {104, 3}} {
		cfg := Config{
			InitialNodes:   16,
			JoinEvery:      40,
			LeaveEvery:     90,
			FailEvery:      120,
			LookupEvery:    2,
			StabilizeEvery: 10,
			Duration:       200,
			Seed:           tc.seed,
			Depth:          tc.depth,
			Landmarks:      3,
		}
		a, err := Run(build(tc.seed), cfg)
		if err != nil {
			t.Fatalf("seed %d: first run: %v", tc.seed, err)
		}
		b, err := Run(build(tc.seed), cfg)
		if err != nil {
			t.Fatalf("seed %d: second run: %v", tc.seed, err)
		}
		if *a != *b {
			t.Fatalf("seed %d depth %d: runs diverged:\n  first  %+v\n  second %+v",
				tc.seed, tc.depth, *a, *b)
		}
		if a.Lookups == 0 || a.Joins == 0 {
			t.Fatalf("seed %d: degenerate run exercised nothing: %+v", tc.seed, *a)
		}
	}
}
