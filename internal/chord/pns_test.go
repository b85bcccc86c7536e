package chord

import (
	"math/rand"
	"testing"

	"repro/internal/id"
	"repro/internal/topology"
	"repro/internal/topology/transitstub"
)

func pnsNet(t testing.TB, hosts int, seed int64) *topology.Network {
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
	return net
}

func TestPNSErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ms := makeMembers(rng, 10)
	if _, err := BuildTablePNS(ms, nil, 8, 1, 0); err == nil {
		t.Error("nil latency function accepted")
	}
	if _, err := BuildTablePNS(nil, func(a, b int) float64 { return 0 }, 8, 1, 0); err == nil {
		t.Error("empty members accepted")
	}
}

func TestPNSFingersStayLegal(t *testing.T) {
	const n = 200
	net := pnsNet(t, n, 2)
	rng := rand.New(rand.NewSource(3))
	ms := makeMembers(rng, n)
	for i := range ms {
		ms[i].Host = i
	}
	tbl, err := BuildTablePNS(ms, net.Latency, 8, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := BuildTable(ms, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 13 {
		for k := uint(0); k < id.Bits; k += 7 {
			f := tbl.Finger(i, k)
			start := id.AddPow2(tbl.ID(i), k)
			// A PNS finger must either be the plain fallback finger or lie
			// inside the legal interval [start, start+2^k... next start).
			if f == plain.Finger(i, k) {
				continue
			}
			end := endOf(tbl.ID(i), k)
			if !id.InClosedOpen(tbl.ID(f), start, end) {
				t.Fatalf("finger[%d][%d] = %s outside [start, end)", i, k, tbl.ID(f).Short())
			}
		}
	}
}

func TestPNSLookupsStillCorrect(t *testing.T) {
	const n = 150
	net := pnsNet(t, n, 5)
	rng := rand.New(rand.NewSource(6))
	ms := makeMembers(rng, n)
	for i := range ms {
		ms[i].Host = i
	}
	tbl, err := BuildTablePNS(ms, net.Latency, 8, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 500; trial++ {
		key := id.Rand(rng)
		from := rng.Intn(n)
		owner, hops := tbl.Lookup(from, key, nil)
		if owner != tbl.SuccessorIndex(key) {
			t.Fatalf("PNS lookup landed on %d, owner %d", owner, tbl.SuccessorIndex(key))
		}
		if hops > 3*id.Bits {
			t.Fatalf("hop explosion: %d", hops)
		}
	}
}

func TestPNSHopsStayLogarithmic(t *testing.T) {
	const n = 300
	net := pnsNet(t, n, 8)
	rng := rand.New(rand.NewSource(9))
	ms := makeMembers(rng, n)
	for i := range ms {
		ms[i].Host = i
	}
	pns, err := BuildTablePNS(ms, net.Latency, 8, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := BuildTable(ms, 0)
	if err != nil {
		t.Fatal(err)
	}
	var pnsHops, plainHops int
	const trials = 800
	for trial := 0; trial < trials; trial++ {
		key := id.Rand(rng)
		from := rng.Intn(n)
		_, h1 := pns.Lookup(from, key, nil)
		_, h2 := plain.Lookup(from, key, nil)
		pnsHops += h1
		plainHops += h2
	}
	// PNS fingers land near the start of each interval less often, so
	// lookups may take a few more hops — but must stay the same order.
	if float64(pnsHops) > 1.6*float64(plainHops) {
		t.Errorf("PNS hops %.2f vs plain %.2f: blow-up", float64(pnsHops)/trials, float64(plainHops)/trials)
	}
}

func TestPNSLowersPerHopLatency(t *testing.T) {
	const n = 300
	net := pnsNet(t, n, 11)
	rng := rand.New(rand.NewSource(12))
	ms := makeMembers(rng, n)
	for i := range ms {
		ms[i].Host = i
	}
	pns, err := BuildTablePNS(ms, net.Latency, 8, 13, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := BuildTable(ms, 0)
	if err != nil {
		t.Fatal(err)
	}
	meanHopLat := func(tbl *Table) float64 {
		r := rand.New(rand.NewSource(14))
		var sum float64
		hops := 0
		for trial := 0; trial < 1200; trial++ {
			tbl.Lookup(r.Intn(n), id.Rand(r), func(f, to int) {
				sum += net.Latency(tbl.Host(f), tbl.Host(to))
				hops++
			})
		}
		return sum / float64(hops)
	}
	p, q := meanHopLat(pns), meanHopLat(plain)
	t.Logf("per-hop latency: PNS %.1f ms, plain %.1f ms", p, q)
	if p >= q {
		t.Errorf("PNS per-hop latency %.1f should beat plain %.1f", p, q)
	}
}

// TestPNSWorkerInvariant: the worker count decides who samples a block of
// members, never what is drawn — so every printed PNS row is the same on
// a 2-core and a 64-core box.
func TestPNSWorkerInvariant(t *testing.T) {
	const n = 300
	net := pnsNet(t, n, 15)
	rng := rand.New(rand.NewSource(16))
	ms := makeMembers(rng, n)
	for i := range ms {
		ms[i].Host = i
	}
	var ref *Table
	for _, workers := range []int{1, 2, 5} {
		tbl, err := BuildTablePNS(ms, net.Latency, 8, 17, workers)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = tbl
			continue
		}
		for i := 0; i < n; i++ {
			for k := uint(0); k < id.Bits; k++ {
				if tbl.Finger(i, k) != ref.Finger(i, k) {
					t.Fatalf("workers=%d: finger[%d][%d] = %d, workers=1 chose %d",
						workers, i, k, tbl.Finger(i, k), ref.Finger(i, k))
				}
			}
		}
	}
}
