// Package experiments reproduces every table and figure of the HIERAS
// paper's evaluation (§4) plus the overhead analysis its future-work
// section calls for. Each experiment has a typed result with Render
// (aligned text) and CSV output; cmd/hieras-bench drives the full suite
// and bench_test.go exposes one benchmark per artifact.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/topology/brite"
	"repro/internal/topology/inet"
	"repro/internal/topology/transitstub"
	"repro/internal/workload"
)

// Model names accepted by Scenario.Model.
const (
	ModelTS    = "ts"
	ModelInet  = "inet"
	ModelBRITE = "brite"
)

// Scenario describes one simulated system instance.
type Scenario struct {
	Model     string // ts | inet | brite
	Nodes     int    // overlay peers
	Landmarks int    // landmark nodes (paper default 4)
	Depth     int    // hierarchy depth (paper default 2)
	Requests  int    // routing requests (paper: 100000)
	Seed      int64
	// Routers overrides the router count for inet/brite underlays
	// (default: Nodes/4 clamped to [256, 2048]; the TS model always uses
	// one stub router per overlay host).
	Routers int
	Workers int
	// ProximityFingers enables PNS finger selection in every ring (see
	// core.Config.ProximityFingers).
	ProximityFingers bool
	// Metrics, when non-nil, instruments the built overlay (and, in
	// CacheStudy, each swept cache) on this registry. Use one registry
	// per scenario run: overlay metric names collide otherwise.
	Metrics *metrics.Registry
}

func (s Scenario) withDefaults() Scenario {
	if s.Model == "" {
		s.Model = ModelTS
	}
	if s.Nodes == 0 {
		s.Nodes = 1000
	}
	if s.Landmarks == 0 {
		s.Landmarks = 4
	}
	if s.Depth == 0 {
		s.Depth = 2
	}
	if s.Requests == 0 {
		s.Requests = 10000
	}
	if s.Routers == 0 {
		r := s.Nodes / 4
		if r < 256 {
			r = 256
		}
		if r > 2048 {
			r = 2048
		}
		s.Routers = r
	}
	if s.Workers <= 0 {
		s.Workers = runtime.GOMAXPROCS(0)
	}
	return s
}

// blockSize is the batch engine's deterministic work unit: requests per
// block. It is part of what a seed means — each block draws from its own
// RNG stream, so summaries are byte-identical across worker counts, and
// changing it repartitions the streams and moves every archived table.
const blockSize = 512

// BuildOverlay generates the underlay for the scenario's topology model,
// attaches the overlay hosts and builds the HIERAS overlay.
func BuildOverlay(s Scenario) (*core.Overlay, error) {
	s = s.withDefaults()
	rng := rand.New(rand.NewSource(s.Seed))
	var u *topology.Underlay
	switch s.Model {
	case ModelTS:
		m, err := transitstub.Generate(transitstub.DefaultConfig(s.Nodes), rng)
		if err != nil {
			return nil, err
		}
		u = &topology.Underlay{Graph: m.G, Model: m, HostCandidates: m.StubRouters}
	case ModelInet:
		var err error
		u, err = inet.Generate(inet.Config{Routers: s.Routers}, rng)
		if err != nil {
			return nil, err
		}
	case ModelBRITE:
		var err error
		u, err = brite.Generate(brite.Config{Routers: s.Routers}, rng)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("experiments: unknown topology model %q", s.Model)
	}
	net, err := topology.Attach(u.Model, u.Graph, topology.AttachOptions{
		Hosts:   s.Nodes,
		Routers: u.HostCandidates,
		Spread:  true,
	}, rng)
	if err != nil {
		return nil, err
	}
	return core.Build(net, core.Config{
		Depth:            s.Depth,
		Landmarks:        s.Landmarks,
		Workers:          s.Workers,
		ProximityFingers: s.ProximityFingers,
		Metrics:          s.Metrics,
	}, rng)
}

// RouteStats aggregates one algorithm's routing metrics.
type RouteStats struct {
	Hops    stats.Online
	Latency stats.Online
}

// Comparison holds HIERAS-vs-Chord metrics for one scenario — the raw
// material for Figures 2-9.
type Comparison struct {
	Scenario Scenario

	Hieras RouteStats
	Chord  RouteStats

	// LowerHops / LowerLatency aggregate per-request lower-layer hops and
	// latency in HIERAS.
	LowerHops    stats.Online
	LowerLatency stats.Online

	// TopLink / LowerLink aggregate per-hop link latencies by layer
	// (paper §4.3: 79 ms vs 27.8 ms).
	TopLink   stats.Online
	LowerLink stats.Online

	// Distributions for Figures 4 and 5.
	HopsHistHieras *stats.Histogram // width 1
	HopsHistChord  *stats.Histogram
	HopsHistTop    *stats.Histogram // HIERAS hops taken in the top layer
	LatHistHieras  *stats.Histogram // width 20 ms
	LatHistChord   *stats.Histogram

	// Latency quantile sketches (mergeable, 1% relative accuracy) for the
	// distribution tails the fixed-width histograms are too coarse for.
	HierasLatQ *stats.Sketch
	ChordLatQ  *stats.Sketch
}

// observe accumulates one request's HIERAS and Chord routes.
func (c *Comparison) observe(h, ch *core.RouteResult) error {
	c.Hieras.Hops.Add(float64(h.NumHops()))
	c.Hieras.Latency.Add(h.Latency)
	c.Chord.Hops.Add(float64(ch.NumHops()))
	c.Chord.Latency.Add(ch.Latency)
	c.LowerHops.Add(float64(h.LowerHops))
	c.LowerLatency.Add(h.LowerLatency)
	for _, hop := range h.Hops {
		if hop.Layer == 1 {
			c.TopLink.Add(hop.Latency)
		} else {
			c.LowerLink.Add(hop.Latency)
		}
	}
	if err := c.HopsHistHieras.Add(float64(h.NumHops())); err != nil {
		return err
	}
	if err := c.HopsHistChord.Add(float64(ch.NumHops())); err != nil {
		return err
	}
	if err := c.HopsHistTop.Add(float64(h.NumHops() - h.LowerHops)); err != nil {
		return err
	}
	if err := c.LatHistHieras.Add(h.Latency); err != nil {
		return err
	}
	if err := c.LatHistChord.Add(ch.Latency); err != nil {
		return err
	}
	if err := c.HierasLatQ.Add(h.Latency); err != nil {
		return err
	}
	return c.ChordLatQ.Add(ch.Latency)
}

// merge folds another (initialised) comparison into c. The batch engine
// calls it in ascending block order, which keeps merged floating-point
// summaries identical across worker counts.
func (c *Comparison) merge(b *Comparison) error {
	c.Hieras.Hops.Merge(&b.Hieras.Hops)
	c.Hieras.Latency.Merge(&b.Hieras.Latency)
	c.Chord.Hops.Merge(&b.Chord.Hops)
	c.Chord.Latency.Merge(&b.Chord.Latency)
	c.LowerHops.Merge(&b.LowerHops)
	c.LowerLatency.Merge(&b.LowerLatency)
	c.TopLink.Merge(&b.TopLink)
	c.LowerLink.Merge(&b.LowerLink)
	if err := c.HopsHistHieras.Merge(b.HopsHistHieras); err != nil {
		return err
	}
	if err := c.HopsHistChord.Merge(b.HopsHistChord); err != nil {
		return err
	}
	if err := c.HopsHistTop.Merge(b.HopsHistTop); err != nil {
		return err
	}
	if err := c.LatHistHieras.Merge(b.LatHistHieras); err != nil {
		return err
	}
	if err := c.LatHistChord.Merge(b.LatHistChord); err != nil {
		return err
	}
	if err := c.HierasLatQ.Merge(b.HierasLatQ); err != nil {
		return err
	}
	return c.ChordLatQ.Merge(b.ChordLatQ)
}

// HopRatio returns mean HIERAS hops / mean Chord hops.
func (c *Comparison) HopRatio() float64 { return c.Hieras.Hops.Mean() / c.Chord.Hops.Mean() }

// LatencyRatio returns mean HIERAS latency / mean Chord latency.
func (c *Comparison) LatencyRatio() float64 {
	return c.Hieras.Latency.Mean() / c.Chord.Latency.Mean()
}

// LowerHopShare returns the fraction of HIERAS hops taken in lower rings.
func (c *Comparison) LowerHopShare() float64 {
	total := c.Hieras.Hops.Mean() * float64(c.Hieras.Hops.N())
	if total == 0 {
		return 0
	}
	return c.LowerHops.Mean() * float64(c.LowerHops.N()) / total
}

// LowerLatencyShare returns the fraction of HIERAS routing latency spent
// in lower rings.
func (c *Comparison) LowerLatencyShare() float64 {
	total := c.Hieras.Latency.Mean() * float64(c.Hieras.Latency.N())
	if total == 0 {
		return 0
	}
	return c.LowerLatency.Mean() * float64(c.LowerLatency.N()) / total
}

// RunComparison routes the scenario's request stream through both HIERAS
// and flat Chord over the same overlay, in parallel across Workers.
func RunComparison(s Scenario) (*Comparison, error) {
	s = s.withDefaults()
	o, err := BuildOverlay(s)
	if err != nil {
		return nil, err
	}
	return CompareOn(o, s)
}

// CompareOn runs the comparison workload over an existing overlay (so
// several experiments can share one expensive build).
func CompareOn(o *core.Overlay, s Scenario) (*Comparison, error) {
	return CompareStream(context.Background(), o, s, nil) //lint:allow ctxflow CompareOn is the documented ctx-less convenience wrapper over CompareContext/CompareStream
}

// CompareContext is CompareOn with cancellation: it returns early with
// ctx.Err() when ctx is cancelled mid-run.
func CompareContext(ctx context.Context, o *core.Overlay, s Scenario) (*Comparison, error) {
	return CompareStream(ctx, o, s, nil)
}

// Progress is one progressive summary of a streaming comparison: the
// statistics over the first Requests of Total requests. Because blocks
// commit in order, every Progress is an exact prefix of the final result.
type Progress struct {
	Requests, Total int
	HierasHops      float64
	ChordHops       float64
	HierasLatencyMs float64
	ChordLatencyMs  float64
	LatencyRatio    float64
}

// CompareStream runs the comparison workload through the parallel batch
// query engine. Requests are generated in deterministic blocks of
// blockSize (each block draws from its own RNG stream split off s.Seed)
// and merged in block order, so the result is byte-identical for any
// worker count. progress, when non-nil, is invoked after every committed
// block, serialized and in order — long runs can report partial summaries
// without waiting for the tail.
func CompareStream(ctx context.Context, o *core.Overlay, s Scenario, progress func(Progress)) (*Comparison, error) {
	s = s.withDefaults()
	blocks := (s.Requests + blockSize - 1) / blockSize
	parts := make([]*Comparison, blocks)

	out := &Comparison{Scenario: s}
	if err := initHists(out); err != nil {
		return nil, err
	}
	merged := 0
	err := NewPool(s.Workers).Run(ctx, blocks,
		func(_, b int) error {
			gen, err := workload.NewUniform(blockSeed(s.Seed, b), o.N())
			if err != nil {
				return err
			}
			count := blockSize
			if last := s.Requests - b*blockSize; count > last {
				count = last
			}
			part := &Comparison{}
			if err := initHists(part); err != nil {
				return err
			}
			for i := 0; i < count; i++ {
				r := gen.Next()
				h := o.Route(r.Origin, r.Key)
				c := o.ChordRoute(r.Origin, r.Key)
				if err := part.observe(&h, &c); err != nil {
					return err
				}
			}
			parts[b] = part
			return nil
		},
		func(b int) error {
			part := parts[b]
			parts[b] = nil
			if err := out.merge(part); err != nil {
				return err
			}
			if progress != nil {
				merged += int(part.Hieras.Hops.N())
				progress(Progress{
					Requests:        merged,
					Total:           s.Requests,
					HierasHops:      out.Hieras.Hops.Mean(),
					ChordHops:       out.Chord.Hops.Mean(),
					HierasLatencyMs: out.Hieras.Latency.Mean(),
					ChordLatencyMs:  out.Chord.Latency.Mean(),
					LatencyRatio:    out.LatencyRatio(),
				})
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func initHists(c *Comparison) error {
	var err error
	if c.HopsHistHieras, err = stats.NewHistogram(1); err != nil {
		return err
	}
	if c.HopsHistChord, err = stats.NewHistogram(1); err != nil {
		return err
	}
	if c.HopsHistTop, err = stats.NewHistogram(1); err != nil {
		return err
	}
	if c.LatHistHieras, err = stats.NewHistogram(20); err != nil {
		return err
	}
	if c.LatHistChord, err = stats.NewHistogram(20); err != nil {
		return err
	}
	if c.HierasLatQ, err = stats.NewSketch(0.01); err != nil {
		return err
	}
	c.ChordLatQ, err = stats.NewSketch(0.01)
	return err
}
