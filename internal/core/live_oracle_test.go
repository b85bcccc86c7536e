package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/topology"
	"repro/internal/topology/transitstub"
	"repro/internal/transport"
	"repro/internal/wire"
)

// landmarkProber answers a host's landmark probes with its exact latency
// to the landmark's router, so binning is a function of the topology.
type landmarkProber struct {
	net     *topology.Network
	host    int
	routers map[string]int
}

func (p landmarkProber) Latency(_ context.Context, _ wire.Caller, landmark string) (float64, error) {
	r, ok := p.routers[landmark]
	if !ok {
		return 0, fmt.Errorf("unknown landmark %q", landmark)
	}
	return p.net.LatencyToRouter(p.host, r), nil
}

// TestLiveMatchesOracle: the live node and the oracle are two drivers of
// one routing procedure (paper §3.2). A classic cluster installed in its
// settled state and an oracle overlay over the same identifiers and ring
// names must agree, lookup by lookup, on the owner, the hop count and the
// hops taken in every layer: at depths 1-3, and at depth 2 on 10,000
// nodes with a topology of their own (about 1.5 s and 0.5 GB resident on
// a 2-core x86 box; skipped under -short).
func TestLiveMatchesOracle(t *testing.T) {
	nodes, pairs := 96, 2000
	if testing.Short() {
		nodes, pairs = 32, 300
	}
	net, landmarks, routers := landmarkNet(t, nodes, 58)
	for depth := 1; depth <= 3; depth++ {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			liveMatchesOracle(t, net, landmarks, routers, nodes, depth, pairs)
		})
	}
	t.Run("10k-depth2", func(t *testing.T) {
		if testing.Short() {
			t.Skip("10,000 live nodes")
		}
		net, landmarks, routers := landmarkNet(t, 10000, 59)
		liveMatchesOracle(t, net, landmarks, routers, 10000, 2, 2000)
	})
}

// landmarkNet is a transit-stub topology of the given hosts and four
// landmark routers named lm0-lm3, all drawn from seed.
func landmarkNet(t *testing.T, nodes int, seed int64) (*topology.Network, []string, map[string]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m, err := transitstub.Generate(transitstub.DefaultConfig(nodes), rng)
	if err != nil {
		t.Fatal(err)
	}
	net, err := topology.Attach(m, m.G, topology.AttachOptions{Hosts: nodes, Routers: m.StubRouters, Spread: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	lms, err := topology.SelectLandmarks(net, 4, topology.LandmarkSpread, rng)
	if err != nil {
		t.Fatal(err)
	}
	routers := map[string]int{}
	var landmarks []string
	for i, r := range lms {
		name := fmt.Sprintf("lm%d", i)
		routers[name] = r
		landmarks = append(landmarks, name)
	}
	return net, landmarks, routers
}

// liveMatchesOracle installs a classic cluster of the given depth on net's
// hosts, assembles the oracle over its identifiers and ring names, and
// compares pairs seeded lookups.
func liveMatchesOracle(t *testing.T, net *topology.Network, landmarks []string, routers map[string]int, nodes, depth, pairs int) {
	d := churn.NewDriver()
	defer d.Close()
	for h := 0; h < nodes; h++ {
		cfg := transport.Config{Depth: depth, RouteMode: transport.RouteClassic,
			Landmarks: landmarks, Prober: landmarkProber{net, h, routers}}
		if _, err := d.Start(fmt.Sprintf("h%d", h), cfg); err != nil {
			t.Fatal(err)
		}
	}
	live := d.Live()
	if err := transport.Install(live); err != nil {
		t.Fatal(err)
	}
	members := make([]core.Node, len(live))
	for h, n := range live {
		members[h] = core.Node{ID: n.ID(), Host: h, RingNames: n.Snapshot().RingNames}
	}
	o, err := core.Assemble(net, core.Config{Depth: depth}, members, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if depth > 1 && o.NumRings() < 2 {
		t.Fatalf("depth %d: %d lower rings; the check needs several", depth, o.NumRings())
	}

	prng := rand.New(rand.NewSource(int64(depth)))
	lower := 0
	for i := 0; i < pairs; i++ {
		h, key := prng.Intn(nodes), id.Rand(prng)
		want := o.Route(o.Global().IndexOf(live[h].ID()), key)
		var wantLayers [8]int
		for _, hop := range want.Hops {
			wantLayers[hop.Layer-1]++
		}
		got, err := live[h].Lookup(d.Context(), key)
		if err != nil {
			t.Fatalf("lookup %d from %s: %v", i, live[h].Addr(), err)
		}
		if got.Owner.ID != [20]byte(o.Node(want.Dest).ID) || got.Hops != want.NumHops() ||
			fmt.Sprint(got.LayerHops[:depth]) != fmt.Sprint(wantLayers[:depth]) {
			t.Fatalf("lookup %d from %s for %s: live owner %s in %d hops %v, oracle owner %s in %d hops %v",
				i, live[h].Addr(), key.Short(), got.Owner.Addr, got.Hops, got.LayerHops[:depth],
				o.Node(want.Dest).ID.Short(), want.NumHops(), wantLayers[:depth])
		}
		lower += want.LowerHops
	}
	if depth > 1 && lower == 0 {
		t.Errorf("depth %d: no lookup took a lower-ring hop", depth)
	}
}
