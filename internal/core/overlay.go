// Package core implements HIERAS, the hierarchical DHT routing algorithm
// of Xu, Min and Hu (ICPP 2003). Besides the global Chord ring containing
// every peer, HIERAS groups topologically-adjacent peers (determined by
// the distributed binning scheme of package binning) into lower-layer P2P
// rings, one per layer per node. Routing runs the underlying Chord
// algorithm once per layer, starting in the request originator's most
// local ring, so most hops traverse low-latency links.
//
// Overlay is oracle-built routing state over a known node population, for
// large trace-driven experiments. The join protocol of paper §3.3, ring
// maintenance and failure handling live in package transport, the live
// node; both drive the routing procedure of package chord (chord.Route).
package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/binning"
	"repro/internal/chord"
	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// Config parametrises overlay construction.
type Config struct {
	// Depth is the hierarchy depth m: the number of P2P ring layers a node
	// belongs to. Depth 1 is plain Chord (the paper's baseline); the paper
	// evaluates depths 2-4 and recommends 2 or 3.
	Depth int
	// Landmarks is the number of landmark nodes for distributed binning
	// (paper default: 4). Ignored when Depth == 1.
	Landmarks int
	// LandmarkStrategy picks landmark placement (default: spread/k-center).
	LandmarkStrategy topology.LandmarkStrategy
	// Ladder overrides the binning threshold ladder; nil uses
	// binning.DefaultLadder(Depth).
	Ladder binning.Ladder
	// SuccessorListLen is r, the per-layer successor list length kept for
	// fault tolerance (default 4).
	SuccessorListLen int
	// Workers bounds build parallelism; <= 0 uses all CPUs.
	Workers int
	// ProximityFingers enables proximity neighbor selection (PNS) when
	// filling finger tables: each slot takes the topologically closest of
	// several legal candidates instead of the exact successor. This is
	// the locality technique of Pastry/DHash-Chord; combined with depth 1
	// it gives the "topology-aware flat DHT" baseline, and combined with
	// depth >= 2 it tests the paper's conclusion that the hierarchy helps
	// regardless of the underlying algorithm's topology awareness.
	ProximityFingers bool
	// PNSSamples bounds candidates probed per finger slot (default 8).
	PNSSamples int
	// AdaptiveBinning derives the binning thresholds from the measured
	// node-landmark latency distribution (equal-mass quantiles) instead of
	// the paper's fixed {20,100} ladder, making binning work on underlays
	// with arbitrary latency scales. Overrides Ladder.
	AdaptiveBinning bool
	// DropLandmarks lists landmark indexes that have FAILED (paper §2.3):
	// every node drops the corresponding digit from its landmark order,
	// which is equivalent to binning on the surviving landmarks. Ring
	// quality degrades gracefully with each loss.
	DropLandmarks []int
	// AccelerateWithSuccessorList enables the paper's optional
	// "predecessor and successor lists can be used to accelerate the
	// process" optimisation: after finishing a layer, if the key's owner
	// is already within the current peer's successor list, hop straight
	// to it. Off by default so hop counts match the paper's main results.
	AccelerateWithSuccessorList bool
	// Metrics, when non-nil, instruments the overlay on this registry at
	// build time (equivalent to calling Instrument after Build). The
	// registry must not be shared with another instrumented overlay or
	// node: metric names would collide.
	Metrics *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.Depth == 0 {
		c.Depth = 2
	}
	if c.Landmarks == 0 {
		c.Landmarks = 4
	}
	if c.SuccessorListLen == 0 {
		c.SuccessorListLen = 4
	}
	return c
}

func (c Config) validate() error {
	if c.Depth < 1 {
		return fmt.Errorf("core: depth must be >= 1, got %d", c.Depth)
	}
	if c.Depth > 1 && c.Landmarks < 1 {
		return fmt.Errorf("core: need at least 1 landmark for depth %d", c.Depth)
	}
	if c.SuccessorListLen < 1 {
		return fmt.Errorf("core: successor list length must be >= 1")
	}
	return nil
}

// Node is one peer's HIERAS state as seen by the oracle overlay.
type Node struct {
	ID   id.ID
	Host int
	// RingNames[l] names the node's layer-(l+2) ring (landmark order
	// string under that layer's thresholds). Empty for depth 1.
	RingNames []string
	// rings[l] locates the node inside its layer-(l+2) ring. (In the
	// layer-1 ring every node is member number its own index.)
	rings []ringRef
}

type ringRef struct {
	ring   *Ring
	member int // index within ring.Table
}

// Ring is one P2P ring: a Chord ring over a subset of peers — all of them
// for the layer-1 global ring.
type Ring struct {
	Layer int    // 1..depth
	Name  string // landmark order string; "" for the global ring
	Table *chord.Table
	// Global[i] is the overlay node index of ring member i.
	Global []int32
}

// Size returns the ring's member count.
func (r *Ring) Size() int { return r.Table.Len() }

// Overlay is an oracle-built HIERAS overlay: every node's multi-layer
// finger tables are exact. It is immutable after Build and safe for
// concurrent routing.
type Overlay struct {
	cfg       Config
	net       *topology.Network
	landmarks []int
	ladder    binning.Ladder

	nodes  []Node // index == global ring member index (ascending ID)
	global *Ring  // the layer-1 ring over all nodes; Global is the identity

	// rings[l] maps ring name -> ring for layer l+2.
	rings []map[string]*Ring

	ringTables map[RingKey]*RingTable

	// instr is nil until Instrument is called; routing loads it once per
	// procedure.
	instr atomic.Pointer[routeMetrics]
}

// NodeID derives the overlay identifier for a host, SHA-1 as in the paper.
func NodeID(host int) id.ID {
	return id.HashTagged("node:", strconv.Itoa(host))
}

// KeyID derives the identifier of an application key (the live node's
// transport.LiveKeyID).
func KeyID(name string) id.ID { return id.HashTagged("key:", name) }

// Build constructs the exact HIERAS overlay for every host of net.
func Build(net *topology.Network, cfg Config, rng *rand.Rand) (*Overlay, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := net.Hosts()
	if n == 0 {
		return nil, fmt.Errorf("core: network has no hosts")
	}

	o := &Overlay{cfg: cfg, net: net, ringTables: make(map[RingKey]*RingTable)}

	// 1. Landmarks and binning ladder (lower layers only).
	if cfg.Depth > 1 {
		var err error
		o.ladder = cfg.Ladder
		if o.ladder == nil {
			if o.ladder, err = binning.DefaultLadder(cfg.Depth); err != nil {
				return nil, err
			}
		}
		if len(o.ladder) != cfg.Depth-1 {
			return nil, fmt.Errorf("core: ladder has %d layers, depth %d needs %d",
				len(o.ladder), cfg.Depth, cfg.Depth-1)
		}
		if o.landmarks, err = topology.SelectLandmarks(net, cfg.Landmarks, cfg.LandmarkStrategy, rng); err != nil {
			return nil, err
		}
	}

	// 2. Identifiers, sorted so overlay node index == global member index.
	o.nodes = make([]Node, n)
	for h := 0; h < n; h++ {
		o.nodes[h] = Node{ID: NodeID(h), Host: h}
	}
	sort.Slice(o.nodes, func(a, b int) bool { return o.nodes[a].ID.Less(o.nodes[b].ID) })
	for i := 1; i < n; i++ {
		if o.nodes[i].ID == o.nodes[i-1].ID {
			return nil, fmt.Errorf("core: SHA-1 identifier collision between hosts %d and %d",
				o.nodes[i-1].Host, o.nodes[i].Host)
		}
	}

	// 3. Each node measures the landmarks and computes its ring names,
	// dropping digits of failed landmarks (paper §2.3).
	if cfg.Depth > 1 {
		dropped := make(map[int]bool, len(cfg.DropLandmarks))
		for _, d := range cfg.DropLandmarks {
			if d < 0 || d >= len(o.landmarks) {
				return nil, fmt.Errorf("core: dropped landmark index %d out of range", d)
			}
			dropped[d] = true
		}
		if len(dropped) == len(o.landmarks) {
			return nil, fmt.Errorf("core: all %d landmarks dropped", len(o.landmarks))
		}
		allLats := make([][]float64, len(o.nodes))
		for i := range o.nodes {
			lats := net.PingVector(o.nodes[i].Host, o.landmarks, rng)
			if len(dropped) > 0 {
				kept := lats[:0]
				for j, l := range lats {
					if !dropped[j] {
						kept = append(kept, l)
					}
				}
				lats = kept
			}
			allLats[i] = lats
		}
		if cfg.AdaptiveBinning {
			samples := make([]float64, 0, len(o.nodes)*len(allLats[0]))
			for _, lats := range allLats {
				samples = append(samples, lats...)
			}
			var err error
			if o.ladder, err = binning.AdaptiveLadder(samples, cfg.Depth); err != nil {
				return nil, err
			}
		}
		for i := range o.nodes {
			names, err := binning.RingNames(allLats[i], o.ladder)
			if err != nil {
				return nil, err
			}
			o.nodes[i].RingNames = names
		}
	}

	if err := o.assemble(rng); err != nil {
		return nil, err
	}
	if cfg.Metrics != nil {
		o.Instrument(cfg.Metrics)
	}
	return o, nil
}

// assemble builds the rings and ring tables over o.nodes, which carry
// identifiers, hosts and ring names in ascending identifier order: Build's
// steps 4-6.
func (o *Overlay) assemble(rng *rand.Rand) error {
	cfg, net, n := o.cfg, o.net, len(o.nodes)

	// 4. Layer-1 (global) ring.
	members := make([]chord.Member, n)
	for i, nd := range o.nodes {
		members[i] = chord.Member{ID: nd.ID, Host: nd.Host}
	}
	pnsSeed := rng.Int63()
	buildTable := func(ms []chord.Member, workers int) (*chord.Table, error) {
		if cfg.ProximityFingers {
			return chord.BuildTablePNS(ms, net.Latency, cfg.PNSSamples, pnsSeed, workers)
		}
		return chord.BuildTable(ms, workers)
	}
	global, err := buildTable(members, cfg.Workers)
	if err != nil {
		return err
	}
	o.global = &Ring{Layer: 1, Table: global, Global: make([]int32, n)}
	for i := range o.global.Global {
		o.global.Global[i] = int32(i)
	}

	// 5. Lower-layer rings, built in parallel.
	o.rings = make([]map[string]*Ring, cfg.Depth-1)
	for l := range o.rings {
		byName := make(map[string][]int32)
		for i := range o.nodes {
			name := o.nodes[i].RingNames[l]
			byName[name] = append(byName[name], int32(i))
		}
		o.rings[l] = make(map[string]*Ring, len(byName))
		type job struct {
			name    string
			members []int32
		}
		jobs := make([]job, 0, len(byName))
		for name, ms := range byName {
			jobs = append(jobs, job{name, ms})
		}
		sort.Slice(jobs, func(a, b int) bool { return jobs[a].name < jobs[b].name })
		rings := make([]*Ring, len(jobs))
		var wg sync.WaitGroup
		errs := make([]error, len(jobs))
		sem := make(chan struct{}, buildWorkers(cfg.Workers))
		for j := range jobs {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				ms := make([]chord.Member, len(jobs[j].members))
				for k, gi := range jobs[j].members {
					ms[k] = chord.Member{ID: o.nodes[gi].ID, Host: o.nodes[gi].Host}
				}
				tbl, err := buildTable(ms, 1)
				if err != nil {
					errs[j] = err
					return
				}
				// Member order is ascending ID; jobs[j].members came from
				// the globally ID-sorted node list, so indexes align.
				rings[j] = &Ring{
					Layer:  l + 2,
					Name:   jobs[j].name,
					Table:  tbl,
					Global: jobs[j].members,
				}
			}(j)
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
		for _, r := range rings {
			o.rings[l][r.Name] = r
			for m, gi := range r.Global {
				o.nodes[gi].rings = append(o.nodes[gi].rings, ringRef{ring: r, member: m})
			}
		}
	}

	// 6. Ring tables (paper §3.1).
	o.buildRingTables()
	return nil
}

func buildWorkers(w int) int {
	if w <= 0 {
		return 8
	}
	return w
}

// N returns the number of peers.
func (o *Overlay) N() int { return len(o.nodes) }

// Depth returns the hierarchy depth.
func (o *Overlay) Depth() int { return o.cfg.Depth }

// Node returns peer i's state (global-ring member order).
func (o *Overlay) Node(i int) *Node { return &o.nodes[i] }

// Global returns the layer-1 (global) Chord ring table.
func (o *Overlay) Global() *chord.Table { return o.global.Table }

// Landmarks returns the landmark router indexes.
func (o *Overlay) Landmarks() []int { return o.landmarks }

// Network returns the underlying topology network.
func (o *Overlay) Network() *topology.Network { return o.net }

// Rings returns the ring map for a layer in 2..Depth.
func (o *Overlay) Rings(layer int) map[string]*Ring {
	if layer < 2 || layer > o.cfg.Depth {
		return nil
	}
	return o.rings[layer-2]
}

// RingOf returns the layer-l ring containing node i and the node's member
// index within it; layer 1 is the global ring, where that index is i.
func (o *Overlay) RingOf(i, layer int) (*Ring, int) {
	if layer == 1 {
		return o.global, i
	}
	if layer < 2 || layer > o.cfg.Depth {
		return nil, -1
	}
	ref := o.nodes[i].rings[layer-2]
	return ref.ring, ref.member
}

// NumRings returns the total number of lower-layer rings.
func (o *Overlay) NumRings() int {
	total := 0
	for _, m := range o.rings {
		total += len(m)
	}
	return total
}

// IndexOfHost returns the overlay node index for a host, or -1.
func (o *Overlay) IndexOfHost(host int) int {
	return o.global.Table.IndexOf(NodeID(host))
}
