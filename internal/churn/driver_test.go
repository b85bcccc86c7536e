package churn

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/id"
	"repro/internal/replica"
	"repro/internal/transport"
)

// settledCluster joins nodes hosts into a classic cluster of the given
// depth the way the churn study does, one round after each join, then
// settles it. tweaks adjust the configuration every node starts with.
func settledCluster(t *testing.T, nodes, depth int, tweaks ...func(*transport.Config)) *Cluster {
	t.Helper()
	c, err := NewCluster(testNet(t, nodes, 9), depth, 4, 0, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for _, tweak := range tweaks {
		tweak(&c.cfg)
	}
	for h := 0; h < nodes; h++ {
		var boot *transport.Node
		if h > 0 {
			boot = c.Live()[0]
		}
		if err := c.Join(h, boot); err != nil {
			t.Fatalf("join %d: %v", h, err)
		}
		c.Round(1)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDriverSettles: Settle reaches a fixpoint on both kinds of cluster
// the tree drives — classic nodes on topology hosts (the churn and
// overhead studies) and one-hop nodes with a replicated store, binned on
// coordinates (simcheck's harness).
func TestDriverSettles(t *testing.T) {
	t.Run("classic/topology", func(t *testing.T) {
		c := settledCluster(t, 24, 2)
		if got := len(c.Live()); got != 24 {
			t.Fatalf("%d live nodes, want 24", got)
		}
	})
	t.Run("onehop+kv/coordinates", func(t *testing.T) {
		d := NewDriver()
		defer d.Close()
		addr := func(i int) string { return fmt.Sprintf("n%d", i) }
		const nodes = 8
		for i := 0; i < nodes; i++ {
			n, err := d.Start(addr(i), transport.Config{
				Depth:       2,
				Landmarks:   []string{addr(0), addr(1)},
				Coord:       [2]float64{float64(500 * (i % 2)), float64(i)},
				RouteMode:   transport.RouteOneHop,
				Replication: replica.Options{Factor: 3, WriteQuorum: 2, ReadQuorum: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			switch i {
			case 0:
			case 1: // both landmarks listen before the network is created
				if err = d.Live()[0].CreateNetwork(); err == nil {
					err = n.Join(addr(0))
				}
			default:
				err = n.Join(addr(0))
			}
			if err != nil {
				t.Fatalf("join %s: %v", addr(i), err)
			}
			d.Round(16)
		}
		for k := 0; k < 16; k++ {
			if err := d.Live()[k%nodes].Put(d.Context(), fmt.Sprint("k", k), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Settle(); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 16; k++ {
			if _, err := d.Live()[(k+3)%nodes].Get(d.Context(), fmt.Sprint("k", k)); err != nil {
				t.Errorf("get k%d on a settled cluster: %v", k, err)
			}
		}
	})
}

// TestDriverRoundAddsNoMessages: on a settled cluster, one driver Round
// serves exactly the requests that each node's StabilizeOnce and
// FixFingersOnce serve when called on their own.
func TestDriverRoundAddsNoMessages(t *testing.T) {
	c := settledCluster(t, 24, 2)
	before := c.Msgs()
	for _, n := range c.Live() {
		_ = n.StabilizeOnce()
		_ = n.FixFingersOnce(id.Bits)
	}
	own := c.Msgs() - before
	before = c.Msgs()
	c.Round(id.Bits)
	if got := c.Msgs() - before; got != own || own == 0 {
		t.Fatalf("a driver round served %d requests, the nodes' own calls %d", got, own)
	}
}

// TestBreakerCooldownOnDriverClock: driven nodes run the shipped breaker
// on the driver's clock. A node fails; the round after, its caller's
// breaker opens. A new node started at the same address is refused by
// that breaker — it serves nothing — until the clock, one second a
// round, has passed the 2 s default cool-down; then the caller's
// half-open probe lets it back in and the breaker closes.
func TestBreakerCooldownOnDriverClock(t *testing.T) {
	d := NewDriver()
	defer d.Close()
	start := func(addr string) *transport.Node {
		t.Helper()
		n, err := d.Start(addr, transport.Config{Depth: 1})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	n0, n1 := start("n0"), start("n1")
	if err := n0.CreateNetwork(); err != nil {
		t.Fatal(err)
	}
	if err := n1.Join("n0"); err != nil {
		t.Fatal(err)
	}
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}
	breakerOpen := func() string {
		var b strings.Builder
		if _, err := n0.Metrics().WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "wire_breaker_open "); ok {
				return v
			}
		}
		t.Fatal("no wire_breaker_open in n0's exposition")
		return ""
	}

	d.Remove(n1, false)
	d.Round(1)
	opened := d.Clock().Now()
	if got := breakerOpen(); got != "1" {
		t.Fatalf("the round after n1 failed: %s open breakers on n0, want 1", got)
	}
	reborn := start("n1")
	if err := reborn.Join("n0"); err != nil {
		t.Fatal(err)
	}
	for round, want := range []struct {
		open   string
		served bool
	}{
		{"1", false}, // 1 s after the breaker opened: refused
		{"0", true},  // 2 s, the cool-down: a probe goes through and succeeds
	} {
		before := reborn.Handled()
		d.Round(1)
		waited := d.Clock().Now().Sub(opened)
		if got := breakerOpen(); got != want.open {
			t.Errorf("round %d (%v after the breaker opened): %s open breakers on n0, want %s", round+1, waited, got, want.open)
		}
		if served := reborn.Handled() > before; served != want.served {
			t.Errorf("round %d (%v after the breaker opened): reborn n1 served requests %t, want %t", round+1, waited, served, want.served)
		}
	}
}

// TestDirectNetMatchesMemNet: the direct net changes what a run costs,
// not what it does. One seeded churn run — 64 nodes at depth 2 with
// joins, graceful leaves, silent failures and lookups — gives the same
// Result, messages included, over MemNet sessions and over the direct
// net, and every surviving node ends with the same snapshot. This is
// what keeps the driver's MemNet path a checked reference.
func TestDirectNetMatchesMemNet(t *testing.T) {
	cfg := baseConfig()
	cfg.InitialNodes, cfg.Duration = 64, 60
	cfg.JoinEvery, cfg.LeaveEvery, cfg.FailEvery = 5, 10, 10
	run := func(memCalls bool) (Result, []transport.Snapshot) {
		rng := rand.New(rand.NewSource(cfg.Seed))
		c, err := NewCluster(testNet(t, 96, 5), cfg.Depth, cfg.Landmarks, cfg.SuccessorListLen, rng)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.direct.Sessions = memCalls
		res, err := drive(c, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		snaps := make([]transport.Snapshot, len(c.Live()))
		for i, n := range c.Live() {
			snaps[i] = n.Snapshot()
		}
		return *res, snaps
	}
	mem, memSnaps := run(true)
	direct, directSnaps := run(false)
	if direct != mem {
		t.Fatalf("the nets diverged:\n  MemNet %+v\n  direct %+v", mem, direct)
	}
	if mem.Joins == 0 || mem.Leaves == 0 || mem.Fails == 0 || mem.Completed == 0 {
		t.Fatalf("degenerate run exercised too little: %+v", mem)
	}
	for i := range memSnaps {
		if !reflect.DeepEqual(memSnaps[i], directSnaps[i]) {
			t.Errorf("survivor %s: snapshots differ:\n  MemNet %+v\n  direct %+v", memSnaps[i].Addr, memSnaps[i], directSnaps[i])
		}
	}
	t.Logf("both nets: %+v", mem)
}
