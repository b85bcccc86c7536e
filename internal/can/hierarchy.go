package can

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/binning"
	"repro/internal/topology"
)

// HierarchyConfig parametrises a HIERAS-over-CAN overlay.
type HierarchyConfig struct {
	// Depth is the hierarchy depth (>= 1; 1 = flat CAN).
	Depth int
	// Landmarks for distributed binning (default 4).
	Landmarks int
	// Dims is the CAN dimensionality (default 2).
	Dims int
	// Ladder overrides the binning ladder.
	Ladder binning.Ladder
}

// Hierarchy is HIERAS with CAN as the underlying DHT: the coordinate
// space is divided once among all nodes (the global layer) and once more
// among the members of every lower-layer ring; lookups route through the
// ring spaces before the global space.
type Hierarchy struct {
	cfg    HierarchyConfig
	net    *topology.Network
	global *Space
	// ringNames[h] holds host h's ring names (per lower layer); rings[l]
	// maps name -> per-ring space for layer l+2.
	ringNames map[int][]string
	rings     []map[string]*Space
	landmarks []int
}

// BuildHierarchy constructs the layered CAN overlay over every host of
// net.
func BuildHierarchy(net *topology.Network, cfg HierarchyConfig, rng *rand.Rand) (*Hierarchy, error) {
	if cfg.Depth == 0 {
		cfg.Depth = 2
	}
	if cfg.Landmarks == 0 {
		cfg.Landmarks = 4
	}
	if cfg.Dims == 0 {
		cfg.Dims = 2
	}
	if cfg.Depth < 1 {
		return nil, fmt.Errorf("can: depth must be >= 1")
	}
	n := net.Hosts()
	if n == 0 {
		return nil, fmt.Errorf("can: network has no hosts")
	}
	h := &Hierarchy{cfg: cfg, net: net, ringNames: make(map[int][]string)}

	hosts := make([]int, n)
	for i := range hosts {
		hosts[i] = i
	}
	var err error
	if h.global, err = Build(hosts, cfg.Dims, rng); err != nil {
		return nil, err
	}

	if cfg.Depth > 1 {
		ladder := cfg.Ladder
		if ladder == nil {
			if ladder, err = binning.DefaultLadder(cfg.Depth); err != nil {
				return nil, err
			}
		}
		if h.landmarks, err = topology.SelectLandmarks(net, cfg.Landmarks, topology.LandmarkSpread, rng); err != nil {
			return nil, err
		}
		byName := make([]map[string][]int, cfg.Depth-1)
		for l := range byName {
			byName[l] = make(map[string][]int)
		}
		for host := 0; host < n; host++ {
			lats := net.PingVector(host, h.landmarks, rng)
			names, err := binning.RingNames(lats, ladder)
			if err != nil {
				return nil, err
			}
			h.ringNames[host] = names
			for l, name := range names {
				byName[l][name] = append(byName[l][name], host)
			}
		}
		h.rings = make([]map[string]*Space, cfg.Depth-1)
		for l := range byName {
			h.rings[l] = make(map[string]*Space, len(byName[l]))
			// Sorted-name order, as core.Build does: every Build draws
			// from the shared rng, so map order would make each run's
			// zones (and the printed row) different.
			names := make([]string, 0, len(byName[l]))
			for name := range byName[l] {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				sp, err := Build(byName[l][name], cfg.Dims, rng)
				if err != nil {
					return nil, err
				}
				h.rings[l][name] = sp
			}
		}
	}
	return h, nil
}

// N returns the number of peers.
func (h *Hierarchy) N() int { return h.net.Hosts() }

// NumRings returns the number of lower-layer CAN spaces.
func (h *Hierarchy) NumRings() int {
	total := 0
	for _, m := range h.rings {
		total += len(m)
	}
	return total
}

// RouteResult describes one layered CAN lookup.
type RouteResult struct {
	OwnerHost int
	Hops      int
	LowerHops int
	Latency   float64
	LowerLat  float64
}

// Route performs the hierarchical routing procedure from host `from` to
// the global owner of point p: each lower ring's space is routed first,
// handing the message to a topologically close node whose zone (in that
// ring's division) contains p, before the global space finishes the job.
func (h *Hierarchy) Route(from int, p Point) RouteResult {
	res := RouteResult{}
	cur := from
	for l := h.cfg.Depth - 2; l >= 0; l-- {
		names := h.ringNames[cur]
		sp := h.rings[l][names[l]]
		member := sp.IndexOfHost(cur)
		owner, _ := sp.Route(member, p, func(f, to int) {
			lat := h.net.Latency(sp.Host(f), sp.Host(to))
			res.Hops++
			res.LowerHops++
			res.Latency += lat
			res.LowerLat += lat
		})
		cur = sp.Host(owner)
	}
	member := h.global.IndexOfHost(cur)
	owner, _ := h.global.Route(member, p, func(f, to int) {
		res.Hops++
		res.Latency += h.net.Latency(h.global.Host(f), h.global.Host(to))
	})
	res.OwnerHost = h.global.Host(owner)
	return res
}

// FlatRoute routes purely in the global CAN — the baseline.
func (h *Hierarchy) FlatRoute(from int, p Point) RouteResult {
	res := RouteResult{}
	member := h.global.IndexOfHost(from)
	owner, _ := h.global.Route(member, p, func(f, to int) {
		res.Hops++
		res.Latency += h.net.Latency(h.global.Host(f), h.global.Host(to))
	})
	res.OwnerHost = h.global.Host(owner)
	return res
}
