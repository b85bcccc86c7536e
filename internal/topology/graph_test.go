package topology

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// lineGraph builds 0-1-2-...-(n-1) with unit delays.
func lineGraph(t *testing.T, n int) *Graph {
	t.Helper()
	g := NewGraph(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1, 1); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	return g
}

func TestAddEdgeValidation(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddEdge(0, 0, 1); err == nil {
		t.Error("self loop accepted")
	}
	if err := g.AddEdge(0, 5, 1); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if err := g.AddEdge(0, 1, 0); err == nil {
		t.Error("zero delay accepted")
	}
	if err := g.AddEdge(0, 1, -3); err == nil {
		t.Error("negative delay accepted")
	}
	if err := g.AddEdge(0, 1, math.NaN()); err == nil {
		t.Error("NaN delay accepted")
	}
	if err := g.AddEdge(0, 1, math.Inf(1)); err == nil {
		t.Error("Inf delay accepted")
	}
	if err := g.AddEdge(0, 1, 2.5); err != nil {
		t.Errorf("valid edge rejected: %v", err)
	}
}

func TestAddNodeAndKinds(t *testing.T) {
	g := NewGraph(0)
	a := g.AddNode(Transit)
	b := g.AddNode(Stub)
	c := g.AddNode(Router)
	if g.N() != 3 {
		t.Fatalf("N = %d, want 3", g.N())
	}
	if g.Kind(a) != Transit || g.Kind(b) != Stub || g.Kind(c) != Router {
		t.Error("kinds not preserved")
	}
}

func TestNodeKindString(t *testing.T) {
	if Router.String() != "router" || Transit.String() != "transit" || Stub.String() != "stub" {
		t.Error("NodeKind strings wrong")
	}
	if NodeKind(42).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestHasEdgeAndDegree(t *testing.T) {
	g := lineGraph(t, 3)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("HasEdge should be symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Error("0-2 should not exist")
	}
	if g.Degree(1) != 2 || g.Degree(0) != 1 {
		t.Errorf("degrees wrong: %d %d", g.Degree(1), g.Degree(0))
	}
	if g.EdgeCount() != 2 {
		t.Errorf("EdgeCount = %d, want 2", g.EdgeCount())
	}
}

func TestConnected(t *testing.T) {
	if !NewGraph(0).Connected() {
		t.Error("empty graph is connected by convention")
	}
	if !NewGraph(1).Connected() {
		t.Error("single node is connected")
	}
	if NewGraph(2).Connected() {
		t.Error("two isolated nodes are not connected")
	}
	if !lineGraph(t, 5).Connected() {
		t.Error("line graph is connected")
	}
}

func TestDijkstraLine(t *testing.T) {
	g := lineGraph(t, 5)
	d := g.Dijkstra(0)
	for i := 0; i < 5; i++ {
		if d[i] != float64(i) {
			t.Errorf("d[%d] = %v, want %d", i, d[i], i)
		}
	}
}

func TestDijkstraPrefersCheaperPath(t *testing.T) {
	// 0-1-2 with unit edges plus a direct 0-2 edge costing 10.
	g := lineGraph(t, 3)
	if err := g.AddEdge(0, 2, 10); err != nil {
		t.Fatal(err)
	}
	if d := g.Dijkstra(0); d[2] != 2 {
		t.Errorf("d[2] = %v, want 2 (via node 1)", d[2])
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	d := g.Dijkstra(0)
	if !math.IsInf(d[2], 1) {
		t.Errorf("d[2] = %v, want +Inf", d[2])
	}
}

// randomConnectedGraph builds a random connected graph for property tests.
func randomConnectedGraph(rng *rand.Rand, n int) *Graph {
	g := NewGraph(n)
	for i := 1; i < n; i++ {
		_ = g.AddEdge(i, rng.Intn(i), 1+rng.Float64()*99)
	}
	extra := n / 2
	for e := 0; e < extra; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			_ = g.AddEdge(u, v, 1+rng.Float64()*99)
		}
	}
	return g
}

func TestQuickDijkstraTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(30)
		g := randomConnectedGraph(r, n)
		a, b, c := r.Intn(n), r.Intn(n), r.Intn(n)
		da := g.Dijkstra(a)
		db := g.Dijkstra(b)
		const eps = 1e-9
		return da[c] <= da[b]+db[c]+eps
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickDijkstraSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(30)
		g := randomConnectedGraph(r, n)
		a, b := r.Intn(n), r.Intn(n)
		const eps = 1e-9
		return math.Abs(g.Dijkstra(a)[b]-g.Dijkstra(b)[a]) < eps
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestComputeStats(t *testing.T) {
	g := NewGraph(0)
	a := g.AddNode(Transit)
	b := g.AddNode(Stub)
	c := g.AddNode(Stub)
	_ = g.AddEdge(a, b, 20)
	_ = g.AddEdge(b, c, 5)
	s := ComputeStats(g)
	if s.Nodes != 3 || s.Edges != 2 {
		t.Errorf("nodes/edges = %d/%d", s.Nodes, s.Edges)
	}
	if s.Transit != 1 || s.Stub != 2 || s.Plain != 0 {
		t.Errorf("kind counts = %d/%d/%d", s.Transit, s.Stub, s.Plain)
	}
	if s.MinDelay != 5 || s.MaxDelay != 20 || s.MeanDelay != 12.5 {
		t.Errorf("delays = %v/%v/%v", s.MinDelay, s.MaxDelay, s.MeanDelay)
	}
	if !s.Connected {
		t.Error("should be connected")
	}
	if s.MinDegree != 1 || s.MaxDegree != 2 {
		t.Errorf("degrees = %d/%d", s.MinDegree, s.MaxDegree)
	}
	empty := ComputeStats(NewGraph(0))
	if empty.Nodes != 0 || !empty.Connected {
		t.Error("empty stats wrong")
	}
}

func TestWriteDOT(t *testing.T) {
	g := NewGraph(0)
	a := g.AddNode(Transit)
	b := g.AddNode(Stub)
	c := g.AddNode(Router)
	_ = g.AddEdge(a, b, 20)
	_ = g.AddEdge(b, c, 5)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"graph \"underlay\"", "shape=box", "shape=circle", "shape=point", "n0 -- n1", "label=\"20\""} {
		if !strings.Contains(out, want) {
			t.Errorf("dot output missing %q", want)
		}
	}
}
