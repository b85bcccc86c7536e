package topology

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestOracleMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnectedGraph(rng, 40)
	o := NewDijkstraOracle(g)
	for src := 0; src < 40; src += 7 {
		want := g.Dijkstra(src)
		for v := 0; v < 40; v++ {
			if got := o.RouterLatency(src, v); got != want[v] {
				t.Fatalf("RouterLatency(%d,%d) = %v, want %v", src, v, got, want[v])
			}
		}
	}
	if o.Routers() != 40 {
		t.Errorf("Routers = %d", o.Routers())
	}
}

func TestOracleSelfLatencyZero(t *testing.T) {
	g := lineGraph(t, 4)
	o := NewDijkstraOracle(g)
	if o.RouterLatency(2, 2) != 0 {
		t.Error("self latency must be 0")
	}
	if o.CachedRows() != 0 {
		t.Error("self query should not compute a row")
	}
}

func TestOracleCachesRows(t *testing.T) {
	g := lineGraph(t, 10)
	o := NewDijkstraOracle(g)
	_ = o.RouterLatency(3, 7)
	if o.CachedRows() != 1 {
		t.Errorf("CachedRows = %d, want 1", o.CachedRows())
	}
	r1 := o.Row(3)
	r2 := o.Row(3)
	if &r1[0] != &r2[0] {
		t.Error("Row should return the cached slice")
	}
}

func TestOracleConcurrentAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnectedGraph(rng, 60)
	o := NewDijkstraOracle(g)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				a, b := r.Intn(60), r.Intn(60)
				got := o.RouterLatency(a, b)
				if got < 0 {
					t.Errorf("negative latency %v", got)
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

func TestAttachSpread(t *testing.T) {
	g := lineGraph(t, 8)
	o := NewDijkstraOracle(g)
	rng := rand.New(rand.NewSource(4))
	net, err := Attach(o, g, AttachOptions{Hosts: 8, Spread: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, r := range net.HostRouter {
		if seen[r] {
			t.Fatal("Spread attachment reused a router")
		}
		seen[r] = true
	}
	if net.Hosts() != 8 {
		t.Errorf("Hosts = %d", net.Hosts())
	}
}

func TestAttachWithReplacement(t *testing.T) {
	g := lineGraph(t, 3)
	o := NewDijkstraOracle(g)
	rng := rand.New(rand.NewSource(5))
	net, err := Attach(o, g, AttachOptions{Hosts: 50}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if net.Hosts() != 50 {
		t.Errorf("Hosts = %d", net.Hosts())
	}
	for _, r := range net.HostRouter {
		if r < 0 || r >= 3 {
			t.Fatalf("router %d out of range", r)
		}
	}
}

func TestAttachCandidateRestriction(t *testing.T) {
	g := lineGraph(t, 10)
	o := NewDijkstraOracle(g)
	rng := rand.New(rand.NewSource(6))
	net, err := Attach(o, g, AttachOptions{Hosts: 20, Routers: []int{2, 5}}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range net.HostRouter {
		if r != 2 && r != 5 {
			t.Fatalf("host attached to non-candidate router %d", r)
		}
	}
}

func TestAttachErrors(t *testing.T) {
	g := lineGraph(t, 3)
	o := NewDijkstraOracle(g)
	rng := rand.New(rand.NewSource(7))
	if _, err := Attach(o, g, AttachOptions{Hosts: 0}, rng); err == nil {
		t.Error("zero hosts accepted")
	}
}

func TestNetworkLatency(t *testing.T) {
	g := lineGraph(t, 4) // unit edges
	o := NewDijkstraOracle(g)
	net := &Network{Model: o, Graph: g, HostRouter: []int{0, 3, 0}, HostDelay: 1}
	if got := net.Latency(0, 1); got != 2+3 {
		t.Errorf("Latency(0,1) = %v, want 5", got)
	}
	if got := net.Latency(0, 0); got != 0 {
		t.Errorf("self latency = %v", got)
	}
	// Two hosts behind the same router still pay both access links.
	if got := net.Latency(0, 2); got != 2 {
		t.Errorf("same-router latency = %v, want 2", got)
	}
	if got := net.LatencyToRouter(1, 0); got != 1+3 {
		t.Errorf("LatencyToRouter = %v, want 4", got)
	}
}

func TestNetworkLatencySymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomConnectedGraph(rng, 30)
	o := NewDijkstraOracle(g)
	net, err := Attach(o, g, AttachOptions{Hosts: 20}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		a, b := rng.Intn(20), rng.Intn(20)
		d1, d2 := net.Latency(a, b), net.Latency(b, a)
		// Dijkstra from each side may sum edge weights in a different
		// order, so allow float rounding slack.
		if math.Abs(d1-d2) > 1e-9 {
			t.Fatalf("asymmetric latency %v vs %v", d1, d2)
		}
	}
}

func TestPingNoise(t *testing.T) {
	g := lineGraph(t, 4)
	o := NewDijkstraOracle(g)
	net := &Network{Model: o, HostRouter: []int{0}, HostDelay: 1, PingNoise: 0.2}
	rng := rand.New(rand.NewSource(9))
	truth := net.LatencyToRouter(0, 3)
	varied := false
	for i := 0; i < 100; i++ {
		p := net.Ping(0, 3, rng)
		if p < truth*0.8-1e-9 || p > truth*1.2+1e-9 {
			t.Fatalf("ping %v outside ±20%% of %v", p, truth)
		}
		if p != truth {
			varied = true
		}
	}
	if !varied {
		t.Error("noisy ping never varied")
	}
	net.PingNoise = 0
	if net.Ping(0, 3, rng) != truth {
		t.Error("noise-free ping should equal true latency")
	}
}

func TestPingVector(t *testing.T) {
	g := lineGraph(t, 5)
	o := NewDijkstraOracle(g)
	net := &Network{Model: o, HostRouter: []int{0}, HostDelay: 1}
	rng := rand.New(rand.NewSource(10))
	v := net.PingVector(0, []int{1, 4}, rng)
	if len(v) != 2 || v[0] != 2 || v[1] != 5 {
		t.Errorf("PingVector = %v, want [2 5]", v)
	}
}

func TestSelectLandmarksRandom(t *testing.T) {
	g := lineGraph(t, 20)
	o := NewDijkstraOracle(g)
	net := &Network{Model: o, HostRouter: []int{0}, HostDelay: 1}
	rng := rand.New(rand.NewSource(11))
	lms, err := SelectLandmarks(net, 5, LandmarkRandom, rng)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, lm := range lms {
		if seen[lm] {
			t.Fatal("duplicate landmark")
		}
		seen[lm] = true
	}
}

func TestSelectLandmarksSpread(t *testing.T) {
	// Line graph: 4 spread landmarks should include both endpoints.
	g := lineGraph(t, 40)
	o := NewDijkstraOracle(g)
	net := &Network{Model: o, HostRouter: []int{0}, HostDelay: 1}
	rng := rand.New(rand.NewSource(12))
	lms, err := SelectLandmarks(net, 4, LandmarkSpread, rng)
	if err != nil {
		t.Fatal(err)
	}
	has := func(v int) bool {
		for _, lm := range lms {
			if lm == v {
				return true
			}
		}
		return false
	}
	if !has(0) || !has(39) {
		t.Errorf("spread landmarks %v should hit both line ends", lms)
	}
}

func TestSelectLandmarksErrors(t *testing.T) {
	g := lineGraph(t, 3)
	o := NewDijkstraOracle(g)
	net := &Network{Model: o, HostRouter: []int{0}, HostDelay: 1}
	rng := rand.New(rand.NewSource(13))
	if _, err := SelectLandmarks(net, 0, LandmarkSpread, rng); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := SelectLandmarks(net, 4, LandmarkSpread, rng); err == nil {
		t.Error("k > routers accepted")
	}
	if _, err := SelectLandmarks(net, 1, LandmarkStrategy(99), rng); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestLandmarkStrategyString(t *testing.T) {
	if LandmarkSpread.String() != "spread" || LandmarkRandom.String() != "random" {
		t.Error("strategy strings wrong")
	}
	if LandmarkStrategy(9).String() == "" {
		t.Error("unknown strategy should render")
	}
}
