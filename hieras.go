// Package hieras is the public entry point of this repository: a
// reproduction of "HIERAS: A DHT Based Hierarchical P2P Routing Algorithm"
// (Xu, Min, Hu — ICPP 2003).
//
// HIERAS layers multiple P2P rings on top of a Chord overlay. Every node
// belongs to one ring per layer; lower-layer rings group topologically
// adjacent nodes, discovered with the distributed binning scheme
// (landmark latency orders). Lookups run Chord once per layer, starting in
// the most local ring, so most routing hops cross short links: the paper
// reports ~50% of Chord's lookup latency at ~1-3% extra hops.
//
// The facade wraps the simulation stack (topology models, binning, Chord,
// the HIERAS overlay, workloads and the experiment harness):
//
//	sys, err := hieras.New(hieras.Options{Model: "ts", Nodes: 1000})
//	route, err := sys.Lookup(0, "some-file")
//	cmp, err := sys.Compare(10000)
//
// Every lookup surface — the plain System, the location-caching
// CachedSystem and the converged one-hop table OneHopSystem — implements
// the Lookuper interface, so harness code is written once against it.
// Bulk measurement goes through the parallel batch query engine:
// System.BatchLookup fans explicit requests across workers, and
// System.Compare / CompareContext run the full HIERAS-vs-Chord workload
// with deterministic, worker-count-invariant summaries.
//
// For the full evaluation suite see cmd/hieras-bench; for live TCP nodes
// see cmd/hieras-node and internal/transport.
package hieras

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/kv"
)

// Lookuper is the unified lookup surface of this package: Lookup routes
// hierarchically (HIERAS), ChordLookup routes over the flat global ring
// (the paper's baseline). System, CachedSystem and OneHopSystem all
// implement it, so experiment harnesses and cmd/* accept any of the three
// interchangeably.
type Lookuper interface {
	Lookup(origin int, key string) (Route, error)
	ChordLookup(origin int, key string) (Route, error)
}

var (
	_ Lookuper = (*System)(nil)
	_ Lookuper = (*CachedSystem)(nil)
	_ Lookuper = (*OneHopSystem)(nil)
)

// Options configures a simulated HIERAS system.
type Options struct {
	// Model selects the underlay topology generator: "ts" (GT-ITM
	// Transit-Stub, the paper's primary model), "inet" or "brite".
	// Default "ts".
	Model string
	// Nodes is the number of overlay peers (default 1000).
	Nodes int
	// Landmarks is the landmark count for distributed binning (default 4,
	// as in the paper's main experiments).
	Landmarks int
	// Depth is the hierarchy depth (default 2; the paper recommends 2-3).
	Depth int
	// Seed makes the whole system — topology, binning, identifiers —
	// reproducible.
	Seed int64
	// Routers overrides the router count for inet/brite underlays.
	Routers int
	// Workers bounds build/query parallelism (default: all CPUs).
	Workers int
	// ProximityFingers enables proximity neighbor selection when filling
	// finger tables (a locality optimisation that stacks with the
	// hierarchy).
	ProximityFingers bool
}

// System is a fully built HIERAS overlay over a simulated internetwork.
type System struct {
	overlay  *core.Overlay
	scenario experiments.Scenario
}

// validate rejects malformed Options up front, before any expensive
// topology generation. Zero values mean "use the default" and pass.
func (o Options) validate() error {
	switch o.Model {
	case "", experiments.ModelTS, experiments.ModelInet, experiments.ModelBRITE:
	default:
		return fmt.Errorf("%w: unknown topology model %q", ErrBadOptions, o.Model)
	}
	if o.Nodes < 0 {
		return fmt.Errorf("%w: negative Nodes %d", ErrBadOptions, o.Nodes)
	}
	if o.Depth < 0 {
		return fmt.Errorf("%w: negative Depth %d", ErrBadOptions, o.Depth)
	}
	if o.Landmarks < 0 {
		return fmt.Errorf("%w: negative Landmarks %d", ErrBadOptions, o.Landmarks)
	}
	if o.Routers < 0 {
		return fmt.Errorf("%w: negative Routers %d", ErrBadOptions, o.Routers)
	}
	return nil
}

// New builds a system: it generates the underlay, attaches hosts, selects
// landmarks, bins every node and constructs all per-ring routing state.
// Malformed options fail fast with an error wrapping ErrBadOptions.
func New(opts Options) (*System, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	sc := experiments.Scenario{
		Model:            opts.Model,
		Nodes:            opts.Nodes,
		Landmarks:        opts.Landmarks,
		Depth:            opts.Depth,
		Seed:             opts.Seed,
		Routers:          opts.Routers,
		Workers:          opts.Workers,
		ProximityFingers: opts.ProximityFingers,
	}
	o, err := experiments.BuildOverlay(sc)
	if err != nil {
		return nil, err
	}
	return &System{overlay: o, scenario: sc}, nil
}

// N returns the number of peers.
func (s *System) N() int { return s.overlay.N() }

// Depth returns the hierarchy depth.
func (s *System) Depth() int { return s.overlay.Depth() }

// NumRings returns the number of lower-layer P2P rings.
func (s *System) NumRings() int { return s.overlay.NumRings() }

// RingName returns the layer-2 ring name of a peer (its landmark order),
// or "" for depth-1 systems.
func (s *System) RingName(peer int) string {
	nd := s.overlay.Node(peer)
	if len(nd.RingNames) == 0 {
		return ""
	}
	return nd.RingNames[0]
}

// Route is the outcome of one lookup.
type Route struct {
	// Dest is the peer owning the key.
	Dest int
	// Hops is the total number of routing hops; LowerHops counts those
	// taken in lower-layer rings.
	Hops, LowerHops int
	// Latency is the routing latency in milliseconds; LowerLatency the
	// share accumulated in lower-layer rings.
	Latency, LowerLatency float64
	// CacheHit reports that a CachedSystem answered from the requester's
	// location cache (always false on other Lookupers).
	CacheHit bool
}

func fromTotals(t core.Totals) Route {
	return Route{
		Dest:         t.Dest,
		Hops:         t.Hops,
		LowerHops:    t.LowerHops,
		Latency:      t.Latency,
		LowerLatency: t.LowerLatency,
	}
}

// checkOrigin validates a lookup origin against the system size.
func (s *System) checkOrigin(origin int) error {
	if origin < 0 || origin >= s.N() {
		return fmt.Errorf("%w: %d not in [0,%d)", ErrOriginOutOfRange, origin, s.N())
	}
	return nil
}

// Lookup routes from peer `origin` to the owner of the named key using
// HIERAS's hierarchical procedure.
func (s *System) Lookup(origin int, key string) (Route, error) {
	if err := s.checkOrigin(origin); err != nil {
		return Route{}, err
	}
	return fromTotals(s.overlay.RouteTotals(origin, core.KeyID(key))), nil
}

// ChordLookup routes the same request over the flat global ring — the
// baseline the paper compares against.
func (s *System) ChordLookup(origin int, key string) (Route, error) {
	if err := s.checkOrigin(origin); err != nil {
		return Route{}, err
	}
	return fromTotals(s.overlay.ChordRouteTotals(origin, core.KeyID(key))), nil
}

// BatchLookup routes one lookup per (origins[i], keys[i]) pair through
// the parallel batch query engine, fanning the work across Options.Workers
// goroutines, and returns the routes in request order. All origins are
// validated before any routing runs.
func (s *System) BatchLookup(origins []int, keys []string) ([]Route, error) {
	if len(origins) != len(keys) {
		return nil, fmt.Errorf("%w: %d origins for %d keys", ErrBadOptions, len(origins), len(keys))
	}
	for _, origin := range origins {
		if err := s.checkOrigin(origin); err != nil {
			return nil, err
		}
	}
	out := make([]Route, len(keys))
	const block = 256
	blocks := (len(keys) + block - 1) / block
	err := experiments.NewPool(s.scenario.Workers).Run(context.Background(), blocks, //lint:allow ctxflow BatchLookup is the package's ctx-less convenience API; the pool drains before it returns, so nothing outlives the call
		func(_, b int) error {
			lo, hi := b*block, (b+1)*block
			if hi > len(keys) {
				hi = len(keys)
			}
			for i := lo; i < hi; i++ {
				out[i] = fromTotals(s.overlay.RouteTotals(origins[i], core.KeyID(keys[i])))
			}
			return nil
		}, nil)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ComparisonSummary condenses a HIERAS-vs-Chord measurement. For a fixed
// seed it is byte-identical at any worker count: the batch engine splits
// the request stream into deterministic blocks and merges them in order.
type ComparisonSummary struct {
	Requests          int
	HierasHops        float64
	ChordHops         float64
	HierasLatencyMs   float64
	ChordLatencyMs    float64
	LatencyRatio      float64 // HIERAS / Chord (paper: ~0.52 on TS)
	HopRatio          float64 // HIERAS / Chord (paper: ~1.01-1.03)
	LowerHopShare     float64 // fraction of hops in lower rings (~0.71)
	LowerLatencyShare float64
	// Latency distribution tails (milliseconds), from mergeable quantile
	// sketches with 1% relative accuracy.
	HierasLatencyP50 float64
	HierasLatencyP99 float64
	ChordLatencyP50  float64
	ChordLatencyP99  float64
}

func summarize(requests int, cmp *experiments.Comparison) ComparisonSummary {
	return ComparisonSummary{
		Requests:          requests,
		HierasHops:        cmp.Hieras.Hops.Mean(),
		ChordHops:         cmp.Chord.Hops.Mean(),
		HierasLatencyMs:   cmp.Hieras.Latency.Mean(),
		ChordLatencyMs:    cmp.Chord.Latency.Mean(),
		LatencyRatio:      cmp.LatencyRatio(),
		HopRatio:          cmp.HopRatio(),
		LowerHopShare:     cmp.LowerHopShare(),
		LowerLatencyShare: cmp.LowerLatencyShare(),
		HierasLatencyP50:  cmp.HierasLatQ.Quantile(0.50),
		HierasLatencyP99:  cmp.HierasLatQ.Quantile(0.99),
		ChordLatencyP50:   cmp.ChordLatQ.Quantile(0.50),
		ChordLatencyP99:   cmp.ChordLatQ.Quantile(0.99),
	}
}

// Compare routes `requests` random lookups through both algorithms over
// this system and summarises the comparison.
func (s *System) Compare(requests int) (ComparisonSummary, error) {
	return s.CompareContext(context.Background(), requests) //lint:allow ctxflow Compare is the documented ctx-less convenience wrapper over CompareContext
}

// CompareContext is Compare with cancellation: the batch engine stops
// fanning out blocks and returns ctx.Err() when ctx is cancelled.
func (s *System) CompareContext(ctx context.Context, requests int) (ComparisonSummary, error) {
	sc := s.scenario
	sc.Requests = requests
	cmp, err := experiments.CompareStream(ctx, s.overlay, sc, nil)
	if err != nil {
		return ComparisonSummary{}, err
	}
	return summarize(requests, cmp), nil
}

// Store creates a replicated key-value (file-location) service over this
// system.
func (s *System) Store(replicas int) (*kv.Store, error) {
	return kv.New(s.overlay, replicas)
}

// Overlay exposes the underlying overlay for advanced use (experiment
// harnesses, custom metrics).
func (s *System) Overlay() *core.Overlay { return s.overlay }
