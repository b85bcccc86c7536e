package topology

import "sync"

// LatencyModel answers router-to-router latency queries for an underlay.
// Implementations must be safe for concurrent use.
type LatencyModel interface {
	// Routers returns the number of routers in the underlay.
	Routers() int
	// RouterLatency returns the one-way shortest-path delay in
	// milliseconds between routers a and b.
	RouterLatency(a, b int) float64
}

// DijkstraOracle is a LatencyModel for arbitrary graphs. It computes
// shortest-path rows lazily (one Dijkstra per distinct source) and caches
// them, so repeated queries are O(1). Safe for concurrent use.
type DijkstraOracle struct {
	g    *Graph
	mu   sync.RWMutex
	rows [][]float64
}

// NewDijkstraOracle returns an oracle over g. The graph must not be
// modified after the oracle is created.
func NewDijkstraOracle(g *Graph) *DijkstraOracle {
	return &DijkstraOracle{g: g, rows: make([][]float64, g.N())}
}

// Routers implements LatencyModel.
func (o *DijkstraOracle) Routers() int { return o.g.N() }

// Row returns the shortest-path delay row from src to every router. The
// returned slice is shared and must not be modified.
func (o *DijkstraOracle) Row(src int) []float64 {
	o.mu.RLock()
	row := o.rows[src]
	o.mu.RUnlock()
	if row != nil {
		return row
	}
	// Compute outside the lock; concurrent duplicate work is harmless and
	// rare, and keeps the fast path contention-free.
	row = o.g.Dijkstra(src)
	o.mu.Lock()
	if o.rows[src] == nil {
		o.rows[src] = row
	} else {
		row = o.rows[src]
	}
	o.mu.Unlock()
	return row
}

// RouterLatency implements LatencyModel.
func (o *DijkstraOracle) RouterLatency(a, b int) float64 {
	if a == b {
		return 0
	}
	return o.Row(a)[b]
}

// CachedRows reports how many rows are currently cached (for tests and
// memory accounting).
func (o *DijkstraOracle) CachedRows() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	n := 0
	for _, r := range o.rows {
		if r != nil {
			n++
		}
	}
	return n
}
