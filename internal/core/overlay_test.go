package core

import (
	"math/rand"
	"testing"

	"repro/internal/binning"
	"repro/internal/topology"
	"repro/internal/topology/transitstub"
)

// testNetwork builds a small Transit-Stub network with the given number of
// overlay hosts.
func testNetwork(t testing.TB, hosts int, seed int64) *topology.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m, err := transitstub.Generate(transitstub.DefaultConfig(hosts), rng)
	if err != nil {
		t.Fatalf("transitstub.Generate: %v", err)
	}
	net, err := topology.Attach(m, m.G, topology.AttachOptions{
		Hosts:   hosts,
		Routers: m.StubRouters,
		Spread:  true,
	}, rng)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	return net
}

func buildOverlay(t testing.TB, hosts int, cfg Config, seed int64) *Overlay {
	t.Helper()
	net := testNetwork(t, hosts, seed)
	o, err := Build(net, cfg, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return o
}

func TestConfigValidation(t *testing.T) {
	net := testNetwork(t, 10, 1)
	rng := rand.New(rand.NewSource(2))
	if _, err := Build(net, Config{Depth: -1}, rng); err == nil {
		t.Error("negative depth accepted")
	}
	if _, err := Build(net, Config{Depth: 2, Landmarks: -1}, rng); err == nil {
		t.Error("negative landmark count accepted")
	}
	if _, err := Build(net, Config{Depth: 2, SuccessorListLen: -1}, rng); err == nil {
		t.Error("negative successor list accepted")
	}
	ladder, _ := binning.DefaultLadder(3)
	if _, err := Build(net, Config{Depth: 2, Ladder: ladder}, rng); err == nil {
		t.Error("ladder/depth mismatch accepted")
	}
}

func TestBuildDefaults(t *testing.T) {
	o := buildOverlay(t, 50, Config{}, 3)
	if o.Depth() != 2 {
		t.Errorf("default depth = %d, want 2", o.Depth())
	}
	if len(o.Landmarks()) != 4 {
		t.Errorf("default landmarks = %d, want 4", len(o.Landmarks()))
	}
	if o.N() != 50 {
		t.Errorf("N = %d", o.N())
	}
}

func TestNodesSortedAndIndexed(t *testing.T) {
	o := buildOverlay(t, 60, Config{Depth: 2}, 4)
	for i := 1; i < o.N(); i++ {
		if !o.Node(i - 1).ID.Less(o.Node(i).ID) {
			t.Fatal("nodes not in ascending ID order")
		}
	}
	for i := 0; i < o.N(); i++ {
		if o.Global().ID(i) != o.Node(i).ID {
			t.Fatal("global table misaligned with node list")
		}
		if o.IndexOfHost(o.Node(i).Host) != i {
			t.Fatal("IndexOfHost broken")
		}
		// Layer 1 is a Ring like any other: the global table under the
		// identity mapping.
		ring, member := o.RingOf(i, 1)
		if ring.Layer != 1 || ring.Table != o.Global() || member != i || int(ring.Global[member]) != i {
			t.Fatalf("RingOf(%d, 1) = (layer %d, member %d), want the global ring and %d", i, ring.Layer, member, i)
		}
	}
	if o.IndexOfHost(9999) != -1 {
		t.Error("IndexOfHost of unknown host should be -1")
	}
}

func TestRingsPartitionEveryLayer(t *testing.T) {
	o := buildOverlay(t, 80, Config{Depth: 3, Landmarks: 4}, 5)
	for layer := 2; layer <= 3; layer++ {
		total := 0
		for _, r := range o.Rings(layer) {
			total += r.Size()
			if r.Layer != layer {
				t.Fatalf("ring reports layer %d in map for layer %d", r.Layer, layer)
			}
		}
		if total != o.N() {
			t.Fatalf("layer %d rings cover %d nodes, want %d", layer, total, o.N())
		}
	}
	if o.Rings(1) != nil || o.Rings(4) != nil {
		t.Error("Rings out of range should return nil")
	}
}

func TestRingMembershipMatchesBinning(t *testing.T) {
	o := buildOverlay(t, 70, Config{Depth: 2, Landmarks: 4}, 6)
	net := o.Network()
	ladder, _ := binning.DefaultLadder(2)
	rng := rand.New(rand.NewSource(99)) // no noise: rng unused by Ping
	for i := 0; i < o.N(); i++ {
		nd := o.Node(i)
		lats := net.PingVector(nd.Host, o.Landmarks(), rng)
		names, err := binning.RingNames(lats, ladder)
		if err != nil {
			t.Fatal(err)
		}
		if nd.RingNames[0] != names[0] {
			t.Fatalf("node %d ring name %q, binning says %q", i, nd.RingNames[0], names[0])
		}
		ring, member := o.RingOf(i, 2)
		if ring.Name != names[0] {
			t.Fatalf("node %d placed in ring %q", i, ring.Name)
		}
		if ring.Table.ID(member) != nd.ID {
			t.Fatal("ring member index does not resolve to the node")
		}
		if int(ring.Global[member]) != i {
			t.Fatal("ring Global mapping broken")
		}
	}
}

func TestRefinementAcrossLayers(t *testing.T) {
	o := buildOverlay(t, 90, Config{Depth: 3, Landmarks: 4}, 7)
	// Nodes sharing a layer-3 ring must share their layer-2 ring.
	for i := 0; i < o.N(); i++ {
		for j := i + 1; j < o.N(); j++ {
			a, b := o.Node(i), o.Node(j)
			if a.RingNames[1] == b.RingNames[1] && a.RingNames[0] != b.RingNames[0] {
				t.Fatalf("nodes %d,%d share layer-3 ring %q but not layer-2", i, j, a.RingNames[1])
			}
		}
	}
}

func TestDepth1IsPlainChord(t *testing.T) {
	o := buildOverlay(t, 40, Config{Depth: 1}, 8)
	if o.NumRings() != 0 {
		t.Errorf("depth-1 overlay has %d lower rings", o.NumRings())
	}
	if len(o.Landmarks()) != 0 {
		t.Error("depth-1 overlay should not select landmarks")
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		key := KeyID("k" + string(rune('a'+trial)))
		h := o.Route(rng.Intn(o.N()), key)
		c := o.ChordRoute(h.Origin, key)
		if h.Dest != c.Dest || h.NumHops() != c.NumHops() {
			t.Fatal("depth-1 Route must equal ChordRoute")
		}
	}
}

func TestRingTables(t *testing.T) {
	o := buildOverlay(t, 60, Config{Depth: 2, Landmarks: 4}, 10)
	count := 0
	for _, r := range o.Rings(2) {
		rt := o.RingTable(2, r.Name)
		if rt == nil {
			t.Fatalf("missing ring table for %q", r.Name)
		}
		count++
		if rt.RingID != (RingKey{Layer: 2, Name: r.Name}).RingID() {
			t.Error("ring id mismatch")
		}
		// Boundary entries.
		if rt.Smallest != r.Table.ID(0) || rt.Largest != r.Table.ID(r.Size()-1) {
			t.Error("boundary entries wrong")
		}
		if r.Size() >= 2 {
			if rt.SecondSmallest != r.Table.ID(1) || rt.SecondLargest != r.Table.ID(r.Size()-2) {
				t.Error("second boundary entries wrong")
			}
		} else if rt.SecondSmallest != rt.Smallest || rt.SecondLargest != rt.Largest {
			t.Error("singleton ring table should repeat entries")
		}
		// Stored at successor(ringid) in the global ring.
		if rt.StoredAt != o.Global().SuccessorIndex(rt.RingID) {
			t.Error("ring table stored at wrong node")
		}
		if len(rt.Replicas) == 0 && o.N() > 1 {
			t.Error("ring table has no replicas")
		}
		if !rt.Contains(rt.Smallest) || !rt.Contains(rt.Largest) {
			t.Error("Contains broken")
		}
		if rt.Contains(KeyID("definitely not a member")) {
			t.Error("Contains matched a stranger")
		}
	}
	if count == 0 {
		t.Fatal("no rings at layer 2")
	}
	if got := len(o.RingTables()); got != o.NumRings() {
		t.Errorf("RingTables count %d != NumRings %d", got, o.NumRings())
	}
	if o.RingTable(2, "no-such-ring") != nil {
		t.Error("unknown ring table should be nil")
	}
}

func TestLayerStats(t *testing.T) {
	o := buildOverlay(t, 100, Config{Depth: 3, Landmarks: 4}, 11)
	stats := o.LayerStats()
	if len(stats) != 2 {
		t.Fatalf("LayerStats len = %d", len(stats))
	}
	for _, s := range stats {
		if s.Rings <= 0 || s.MinSize <= 0 || s.MaxSize < s.MinSize {
			t.Errorf("implausible layer stats %+v", s)
		}
		if s.MeanSize < float64(s.MinSize) || s.MeanSize > float64(s.MaxSize) {
			t.Errorf("mean outside min/max: %+v", s)
		}
	}
	// Deeper layers have at least as many rings (refinement).
	if stats[1].Rings < stats[0].Rings {
		t.Errorf("layer 3 has fewer rings (%d) than layer 2 (%d)", stats[1].Rings, stats[0].Rings)
	}
}

func TestStateStats(t *testing.T) {
	o := buildOverlay(t, 60, Config{Depth: 2, Landmarks: 4}, 12)
	s := o.StateStats()
	if s.Nodes != 60 || s.Depth != 2 {
		t.Errorf("basic fields wrong: %+v", s)
	}
	if s.FingerEntriesPerNode != 320 {
		t.Errorf("finger entries = %d, want 320", s.FingerEntriesPerNode)
	}
	if s.SuccessorListEntriesPerNode != 8 {
		t.Errorf("succ list entries = %d, want 8", s.SuccessorListEntriesPerNode)
	}
	if s.DistinctFingersPerNode < s.DistinctFingersLayer1 {
		t.Error("total distinct fingers cannot be below layer-1 distinct fingers")
	}
	if s.DistinctFingersLayer1 <= 0 || s.EstBytesPerNode <= 0 {
		t.Error("stats should be positive")
	}
	// The paper's §3.4 claim: multi-layer state stays within hundreds or
	// thousands of bytes.
	if s.EstBytesPerNode > 4096 {
		t.Errorf("per-node state estimate %v bytes is implausibly large", s.EstBytesPerNode)
	}
}

func TestBuildDeterministic(t *testing.T) {
	o1 := buildOverlay(t, 50, Config{Depth: 2}, 13)
	o2 := buildOverlay(t, 50, Config{Depth: 2}, 13)
	if o1.NumRings() != o2.NumRings() {
		t.Fatal("same seed produced different ring structure")
	}
	for i := 0; i < o1.N(); i++ {
		if o1.Node(i).RingNames[0] != o2.Node(i).RingNames[0] {
			t.Fatal("same seed produced different ring names")
		}
	}
}

func TestBuildEmptyNetwork(t *testing.T) {
	net := &topology.Network{Model: topology.NewDijkstraOracle(topology.NewGraph(1)), HostDelay: 1}
	if _, err := Build(net, Config{}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("empty network accepted")
	}
}
