// Package topology provides the network underlay used by the HIERAS and
// Chord simulations: weighted router graphs, shortest-path latency oracles,
// attachment of overlay hosts to routers, and landmark selection for the
// distributed binning scheme.
//
// Link weights are propagation delays in milliseconds. All randomness flows
// through caller-provided *rand.Rand values so simulations are reproducible.
package topology

import (
	"container/heap"
	"fmt"
	"math"
)

// NodeKind classifies an underlay router.
type NodeKind uint8

const (
	// Router is a generic router (Inet/BRITE models).
	Router NodeKind = iota
	// Transit is a transit-domain router in the GT-ITM TS model.
	Transit
	// Stub is a stub-domain router in the GT-ITM TS model.
	Stub
)

func (k NodeKind) String() string {
	switch k {
	case Router:
		return "router"
	case Transit:
		return "transit"
	case Stub:
		return "stub"
	default:
		return fmt.Sprintf("NodeKind(%d)", uint8(k))
	}
}

// Edge is a directed half of an undirected link.
type Edge struct {
	To    int
	Delay float64 // milliseconds
}

// Graph is an undirected weighted multigraph of routers. The zero value is
// an empty graph; add nodes with AddNode.
type Graph struct {
	adj  [][]Edge
	kind []NodeKind
}

// NewGraph returns a graph with n generic routers and no links.
func NewGraph(n int) *Graph {
	g := &Graph{
		adj:  make([][]Edge, n),
		kind: make([]NodeKind, n),
	}
	return g
}

// AddNode appends a node of the given kind and returns its index.
func (g *Graph) AddNode(kind NodeKind) int {
	g.adj = append(g.adj, nil)
	g.kind = append(g.kind, kind)
	return len(g.adj) - 1
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// Kind returns the kind of node u.
func (g *Graph) Kind(u int) NodeKind { return g.kind[u] }

// AddEdge adds an undirected link between u and v with the given delay.
// Self loops and non-positive delays are rejected.
func (g *Graph) AddEdge(u, v int, delay float64) error {
	if u == v {
		return fmt.Errorf("topology: self loop at node %d", u)
	}
	if u < 0 || u >= g.N() || v < 0 || v >= g.N() {
		return fmt.Errorf("topology: edge (%d,%d) out of range (n=%d)", u, v, g.N())
	}
	if delay <= 0 || math.IsNaN(delay) || math.IsInf(delay, 0) {
		return fmt.Errorf("topology: invalid delay %v on edge (%d,%d)", delay, u, v)
	}
	g.adj[u] = append(g.adj[u], Edge{To: v, Delay: delay})
	g.adj[v] = append(g.adj[v], Edge{To: u, Delay: delay})
	return nil
}

// HasEdge reports whether at least one direct link u-v exists.
func (g *Graph) HasEdge(u, v int) bool {
	for _, e := range g.adj[u] {
		if e.To == v {
			return true
		}
	}
	return false
}

// Neighbors returns the adjacency list of u. The returned slice must not be
// modified.
func (g *Graph) Neighbors(u int) []Edge { return g.adj[u] }

// Degree returns the number of incident link ends at u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// EdgeCount returns the number of undirected links.
func (g *Graph) EdgeCount() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// Connected reports whether the graph is connected (true for the empty
// graph).
func (g *Graph) Connected() bool {
	n := g.N()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[u] {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
	}
	return count == n
}

// Dijkstra computes single-source shortest-path delays from src to every
// node. Unreachable nodes get +Inf.
func (g *Graph) Dijkstra(src int) []float64 {
	dist := make([]float64, g.N())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	pq := &distHeap{{node: src, dist: 0}}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(distItem)
		if item.dist > dist[item.node] {
			continue // stale entry
		}
		for _, e := range g.adj[item.node] {
			if nd := item.dist + e.Delay; nd < dist[e.To] {
				dist[e.To] = nd
				heap.Push(pq, distItem{node: e.To, dist: nd})
			}
		}
	}
	return dist
}

type distItem struct {
	node int
	dist float64
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Stats summarises a graph for CLI inspection.
type Stats struct {
	Nodes, Edges         int
	Transit, Stub, Plain int
	MinDegree, MaxDegree int
	MeanDegree           float64
	MinDelay, MaxDelay   float64
	MeanDelay            float64
	Connected            bool
}

// ComputeStats gathers summary statistics for g.
func ComputeStats(g *Graph) Stats {
	s := Stats{Nodes: g.N(), Edges: g.EdgeCount(), Connected: g.Connected()}
	if g.N() == 0 {
		return s
	}
	s.MinDegree = math.MaxInt32
	s.MinDelay = math.Inf(1)
	var degSum int
	var delaySum float64
	var delayCount int
	for u := 0; u < g.N(); u++ {
		switch g.kind[u] {
		case Transit:
			s.Transit++
		case Stub:
			s.Stub++
		default:
			s.Plain++
		}
		d := g.Degree(u)
		degSum += d
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		for _, e := range g.adj[u] {
			if e.To > u { // count each undirected link once
				delaySum += e.Delay
				delayCount++
				if e.Delay < s.MinDelay {
					s.MinDelay = e.Delay
				}
				if e.Delay > s.MaxDelay {
					s.MaxDelay = e.Delay
				}
			}
		}
	}
	s.MeanDegree = float64(degSum) / float64(g.N())
	if delayCount > 0 {
		s.MeanDelay = delaySum / float64(delayCount)
	} else {
		s.MinDelay = 0
	}
	return s
}
