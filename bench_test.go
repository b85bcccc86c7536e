// Benchmarks regenerating every table and figure of the HIERAS paper's
// evaluation, one per artifact, at laptop scale (the paper's 10000-node /
// 100000-request configurations are reproduced by `cmd/hieras-bench
// -paper`). Shape metrics — who wins, by what factor — are attached to
// each benchmark via ReportMetric so `go test -bench=.` doubles as a
// regression check on the reproduction.
package hieras_test

import (
	"io"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/topology"
	"repro/internal/topology/transitstub"
)

// benchBase is the reduced-scale scenario shared by the figure benches.
func benchBase() experiments.Scenario {
	return experiments.Scenario{Nodes: 400, Requests: 3000, Seed: 1234}
}

func reportComparison(b *testing.B, cmp *experiments.Comparison) {
	b.Helper()
	b.ReportMetric(cmp.LatencyRatio(), "latency_ratio")
	b.ReportMetric(cmp.HopRatio(), "hop_ratio")
	b.ReportMetric(cmp.LowerHopShare(), "lower_hop_share")
}

// BenchmarkTable1Binning regenerates Table 1 (the distributed-binning
// example with the paper's exact sample latencies).
func BenchmarkTable1Binning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		tbl.Render(io.Discard)
	}
}

// BenchmarkTable2FingerTables regenerates Table 2 (a node's layered
// finger tables in a two-layer system).
func BenchmarkTable2FingerTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Table2(experiments.Scenario{Nodes: 120, Seed: 9})
		if err != nil {
			b.Fatal(err)
		}
		tbl.Render(io.Discard)
	}
}

// BenchmarkTable3RingTable regenerates Table 3 (ring table layout).
func BenchmarkTable3RingTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Table3(experiments.Scenario{Nodes: 80, Seed: 10})
		if err != nil {
			b.Fatal(err)
		}
		tbl.Render(io.Discard)
	}
}

// BenchmarkFigure2Hops regenerates Figure 2: average routing hops versus
// network size across the three topology models.
func BenchmarkFigure2Hops(b *testing.B) {
	base := benchBase()
	sizes := map[string][]int{
		experiments.ModelTS:    {200, 400},
		experiments.ModelInet:  {300},
		experiments.ModelBRITE: {200},
	}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figures2and3(base, sizes)
		if err != nil {
			b.Fatal(err)
		}
		res.HopsTable().Render(io.Discard)
		last := res.Sweeps[0].Rows[len(res.Sweeps[0].Rows)-1].Cmp
		b.ReportMetric(last.HopRatio(), "hop_ratio_ts")
	}
}

// BenchmarkFigure3Latency regenerates Figure 3: average routing latency
// versus network size across models.
func BenchmarkFigure3Latency(b *testing.B) {
	base := benchBase()
	sizes := map[string][]int{
		experiments.ModelTS:    {200, 400},
		experiments.ModelInet:  {300},
		experiments.ModelBRITE: {200},
	}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figures2and3(base, sizes)
		if err != nil {
			b.Fatal(err)
		}
		res.LatencyTable().Render(io.Discard)
		for _, sw := range res.Sweeps {
			last := sw.Rows[len(sw.Rows)-1].Cmp
			b.ReportMetric(last.LatencyRatio(), "latency_ratio_"+sw.Model)
		}
	}
}

// BenchmarkFigure4PDF regenerates Figure 4: the PDF of routing hops on a
// large TS network, including the lower-layer hop share.
func BenchmarkFigure4PDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figures4and5(benchBase())
		if err != nil {
			b.Fatal(err)
		}
		res.PDFTable().Render(io.Discard)
		reportComparison(b, res.Cmp)
	}
}

// BenchmarkFigure5CDF regenerates Figure 5: the CDF of routing latency.
func BenchmarkFigure5CDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figures4and5(benchBase())
		if err != nil {
			b.Fatal(err)
		}
		res.CDFTable().Render(io.Discard)
		res.SummaryTable().Render(io.Discard)
		reportComparison(b, res.Cmp)
	}
}

// BenchmarkFigure6LandmarkHops regenerates Figure 6: hops versus the
// number of landmark nodes.
func BenchmarkFigure6LandmarkHops(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figures6and7(benchBase(), []int{2, 4, 6, 8})
		if err != nil {
			b.Fatal(err)
		}
		res.HopsTable().Render(io.Discard)
	}
}

// BenchmarkFigure7LandmarkLatency regenerates Figure 7: latency versus the
// number of landmark nodes (the paper's optimum sits near 8).
func BenchmarkFigure7LandmarkLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figures6and7(benchBase(), []int{2, 4, 6, 8})
		if err != nil {
			b.Fatal(err)
		}
		res.LatencyTable().Render(io.Discard)
		first := res.Rows[0].Cmp.LatencyRatio()
		best := first
		for _, row := range res.Rows {
			if r := row.Cmp.LatencyRatio(); r < best {
				best = r
			}
		}
		b.ReportMetric(first, "latency_ratio_2lm")
		b.ReportMetric(best, "latency_ratio_best")
	}
}

// BenchmarkFigure8DepthHops regenerates Figure 8: hops versus hierarchy
// depth.
func BenchmarkFigure8DepthHops(b *testing.B) {
	base := benchBase()
	base.Landmarks = 6
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figures8and9(base, []int{400}, []int{2, 3, 4})
		if err != nil {
			b.Fatal(err)
		}
		res.HopsTable().Render(io.Discard)
	}
}

// BenchmarkFigure9DepthLatency regenerates Figure 9: latency versus
// hierarchy depth (2-3 layers capture most of the benefit).
func BenchmarkFigure9DepthLatency(b *testing.B) {
	base := benchBase()
	base.Landmarks = 6
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figures8and9(base, []int{400}, []int{2, 3, 4})
		if err != nil {
			b.Fatal(err)
		}
		res.LatencyTable().Render(io.Discard)
		b.ReportMetric(res.Rows[0].Cmp.LatencyRatio(), "latency_ratio_d2")
		b.ReportMetric(res.Rows[len(res.Rows)-1].Cmp.LatencyRatio(), "latency_ratio_d4")
	}
}

// BenchmarkOverheadAnalysis runs the quantitative overhead study the paper
// defers to future work: per-node state and join/maintenance messages for
// Chord (depth 1) versus HIERAS (depths 2-3).
func BenchmarkOverheadAnalysis(b *testing.B) {
	s := experiments.Scenario{Nodes: 80, Seed: 5, Requests: 100}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Overhead(s, []int{1, 2, 3})
		if err != nil {
			b.Fatal(err)
		}
		res.Table().Render(io.Discard)
		b.ReportMetric(res.Rows[1].JoinMsgs/res.Rows[0].JoinMsgs, "join_cost_x")
	}
}

// BenchmarkAblationLandmarkPlacement compares spread (k-center) landmark
// placement against random placement — a design choice DESIGN.md calls
// out: binning quality depends on landmarks covering distinct regions.
func BenchmarkAblationLandmarkPlacement(b *testing.B) {
	build := func(strategy topology.LandmarkStrategy) float64 {
		rng := rand.New(rand.NewSource(77))
		m, err := transitstub.Generate(transitstub.DefaultConfig(400), rng)
		if err != nil {
			b.Fatal(err)
		}
		net, err := topology.Attach(m, m.G, topology.AttachOptions{
			Hosts: 400, Routers: m.StubRouters, Spread: true,
		}, rng)
		if err != nil {
			b.Fatal(err)
		}
		o, err := core.Build(net, core.Config{Depth: 2, Landmarks: 4, LandmarkStrategy: strategy}, rng)
		if err != nil {
			b.Fatal(err)
		}
		var hieras, chord float64
		r2 := rand.New(rand.NewSource(78))
		for t := 0; t < 2000; t++ {
			from := r2.Intn(o.N())
			key := core.KeyID(string(rune(t)) + "k")
			hieras += o.Route(from, key).Latency
			chord += o.ChordRoute(from, key).Latency
		}
		return hieras / chord
	}
	for i := 0; i < b.N; i++ {
		spread := build(topology.LandmarkSpread)
		random := build(topology.LandmarkRandom)
		b.ReportMetric(spread, "latency_ratio_spread")
		b.ReportMetric(random, "latency_ratio_random")
	}
}

// BenchmarkAblationSuccessorAcceleration measures the paper's optional
// successor-list shortcut (§3.2 "predecessor and successor lists can be
// used to accelerate the process").
func BenchmarkAblationSuccessorAcceleration(b *testing.B) {
	run := func(accelerate bool) (hops float64) {
		rng := rand.New(rand.NewSource(88))
		m, err := transitstub.Generate(transitstub.DefaultConfig(300), rng)
		if err != nil {
			b.Fatal(err)
		}
		net, err := topology.Attach(m, m.G, topology.AttachOptions{
			Hosts: 300, Routers: m.StubRouters, Spread: true,
		}, rng)
		if err != nil {
			b.Fatal(err)
		}
		o, err := core.Build(net, core.Config{
			Depth: 2, Landmarks: 4,
			SuccessorListLen:            8,
			AccelerateWithSuccessorList: accelerate,
		}, rng)
		if err != nil {
			b.Fatal(err)
		}
		r2 := rand.New(rand.NewSource(89))
		total := 0
		for t := 0; t < 2000; t++ {
			res := o.Route(r2.Intn(o.N()), core.KeyID(string(rune(t))))
			total += res.NumHops()
		}
		return float64(total) / 2000
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(false), "hops_plain")
		b.ReportMetric(run(true), "hops_accelerated")
	}
}

// BenchmarkExtensionAlgorithms runs the paper's future-work head-to-head:
// Chord, Chord+PNS, Pastry, HIERAS and HIERAS+PNS on one TS network.
func BenchmarkExtensionAlgorithms(b *testing.B) {
	s := experiments.Scenario{Nodes: 300, Requests: 1500, Seed: 61}
	for i := 0; i < b.N; i++ {
		res, err := experiments.CompareAlgorithms(s)
		if err != nil {
			b.Fatal(err)
		}
		res.Table().Render(io.Discard)
		base := res.Row("chord").Latency.Mean()
		b.ReportMetric(res.Row("pastry").Latency.Mean()/base, "pastry_vs_chord")
		b.ReportMetric(res.Row("hieras").Latency.Mean()/base, "hieras_vs_chord")
		b.ReportMetric(res.Row("hieras+pns").Latency.Mean()/base, "hieras_pns_vs_chord")
	}
}

// BenchmarkExtensionCAN runs the §3.2 transplant: HIERAS over CAN versus
// flat CAN.
func BenchmarkExtensionCAN(b *testing.B) {
	s := experiments.Scenario{Nodes: 400, Requests: 2000, Seed: 62}
	for i := 0; i < b.N; i++ {
		res, err := experiments.CompareCAN(s)
		if err != nil {
			b.Fatal(err)
		}
		res.Table().Render(io.Discard)
		b.ReportMetric(res.Hier.Latency.Mean()/res.Flat.Latency.Mean(), "can_latency_ratio")
	}
}

// BenchmarkExtensionResilience sweeps the failed-host fraction over live
// clusters and measures delivery for HIERAS and Chord before any repair
// (the inherited fault tolerance of §3.3).
func BenchmarkExtensionResilience(b *testing.B) {
	s := experiments.Scenario{Nodes: 300, Requests: 800, Seed: 63}
	for i := 0; i < b.N; i++ {
		res, err := experiments.FailureResilience(s, []float64{0.1, 0.3})
		if err != nil {
			b.Fatal(err)
		}
		res.Table().Render(io.Discard)
		b.ReportMetric(res.Rows[1].Hieras[0].Delivered, "hieras_delivered_30pct")
		b.ReportMetric(res.Rows[1].Chord[0].Delivered, "chord_delivered_30pct")
	}
}

// BenchmarkExtensionCaching measures the inherited location-caching scheme
// (§3.2) under a Zipf workload.
func BenchmarkExtensionCaching(b *testing.B) {
	s := experiments.Scenario{Nodes: 200, Requests: 4000, Seed: 64}
	for i := 0; i < b.N; i++ {
		res, err := experiments.CacheStudy(s, []int{64, 512}, cache.CacheAlongPath)
		if err != nil {
			b.Fatal(err)
		}
		res.Table().Render(io.Discard)
		b.ReportMetric(res.Rows[1].HitRate, "hit_rate_512")
		b.ReportMetric(res.Rows[1].MeanLatency/res.NoCacheMean, "latency_vs_nocache")
	}
}

// BenchmarkAblationAdaptiveBinning compares the paper's fixed {20,100}
// thresholds against percentile-derived adaptive thresholds
// (binning.AdaptiveThresholds) on two underlays: the TS model the fixed
// constants were designed for, and a BRITE underlay with a different
// latency scale.
func BenchmarkAblationAdaptiveBinning(b *testing.B) {
	run := func(model string, adaptive bool) float64 {
		s := experiments.Scenario{Model: model, Nodes: 400, Requests: 2000, Seed: 55, Landmarks: 6}
		o, err := experiments.BuildOverlay(s)
		if err != nil {
			b.Fatal(err)
		}
		if adaptive {
			o2, err := core.Build(o.Network(), core.Config{
				Depth: 2, Landmarks: 6, AdaptiveBinning: true,
			}, rand.New(rand.NewSource(56)))
			if err != nil {
				b.Fatal(err)
			}
			o = o2
		}
		rng := rand.New(rand.NewSource(57))
		var h, c float64
		for t := 0; t < 2000; t++ {
			from := rng.Intn(o.N())
			key := core.KeyID(string(rune(t)) + model)
			h += o.Route(from, key).Latency
			c += o.ChordRoute(from, key).Latency
		}
		return h / c
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(experiments.ModelTS, false), "ts_fixed")
		b.ReportMetric(run(experiments.ModelTS, true), "ts_adaptive")
		b.ReportMetric(run(experiments.ModelBRITE, false), "brite_fixed")
		b.ReportMetric(run(experiments.ModelBRITE, true), "brite_adaptive")
	}
}

// BenchmarkChurnAvailability measures lookup correctness under silent node
// failures with per-layer successor lists — quantifying §3.3's claim that
// Chord's failure handling carries over to every ring.
func BenchmarkChurnAvailability(b *testing.B) {
	rng := rand.New(rand.NewSource(99))
	m, err := transitstub.Generate(transitstub.DefaultConfig(80), rng)
	if err != nil {
		b.Fatal(err)
	}
	net, err := topology.Attach(m, m.G, topology.AttachOptions{
		Hosts: 80, Routers: m.StubRouters, Spread: true,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	cfg := churn.Config{
		InitialNodes: 40, JoinEvery: 10, FailEvery: 10,
		LookupEvery: 0.5, StabilizeEvery: 2, Duration: 150,
		Seed: 3, Depth: 2, Landmarks: 4, SuccessorListLen: 6,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := churn.Run(net, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CorrectRate, "correct_rate")
		b.ReportMetric(res.CompletionRate, "completion_rate")
	}
}
