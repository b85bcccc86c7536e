package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/can"
	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/pastry"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/topology/transitstub"
	"repro/internal/workload"
)

// AlgoRow is one algorithm's aggregate routing metrics in a multi-way
// comparison.
type AlgoRow struct {
	Name    string
	Hops    stats.Online
	Latency stats.Online
}

// AlgoComparison compares routing algorithms over the same underlay, the
// same peer population and the same request stream — the head-to-head the
// paper defers to future work ("compare HIERAS performance with other low
// latency DHT algorithms such as Pastry", §6).
type AlgoComparison struct {
	Scenario Scenario
	Rows     []AlgoRow
}

// CompareAlgorithms runs Chord, Chord+PNS, Pastry (with proximity
// neighbor selection), HIERAS and HIERAS+PNS on one Transit-Stub network.
func CompareAlgorithms(s Scenario) (*AlgoComparison, error) {
	s = s.withDefaults()
	rng := rand.New(rand.NewSource(s.Seed))
	m, err := transitstub.Generate(transitstub.DefaultConfig(s.Nodes), rng)
	if err != nil {
		return nil, err
	}
	net, err := topology.Attach(m, m.G, topology.AttachOptions{
		Hosts: s.Nodes, Routers: m.StubRouters, Spread: true,
	}, rng)
	if err != nil {
		return nil, err
	}

	build := func(cfg core.Config, seed int64) (*core.Overlay, error) {
		return core.Build(net, cfg, rand.New(rand.NewSource(seed)))
	}
	plain, err := build(core.Config{Depth: 2, Landmarks: s.Landmarks, Workers: s.Workers}, s.Seed+1)
	if err != nil {
		return nil, err
	}
	pns, err := build(core.Config{
		Depth: 2, Landmarks: s.Landmarks, Workers: s.Workers, ProximityFingers: true,
	}, s.Seed+1) // same seed: same landmarks/rings, only finger choice differs
	if err != nil {
		return nil, err
	}
	// Pastry over the same peer population (same host->ID mapping).
	pm := make([]pastry.Member, plain.N())
	for i := 0; i < plain.N(); i++ {
		nd := plain.Node(i)
		pm[i] = pastry.Member{ID: nd.ID, Host: nd.Host}
	}
	pt, err := pastry.Build(pm, net, pastry.Config{Seed: s.Seed + 2})
	if err != nil {
		return nil, err
	}

	gen, err := workload.NewUniform(s.Seed+3, plain.N())
	if err != nil {
		return nil, err
	}
	reqs := gen.Batch(s.Requests)

	rows := []AlgoRow{
		{Name: "chord"}, {Name: "chord+pns"}, {Name: "pastry"},
		{Name: "hieras"}, {Name: "hieras+pns"},
	}
	pastryLat := func(from int, key id.ID) (int, float64) {
		hops := 0
		lat := 0.0
		pt.Route(from, key, func(f, to int) {
			hops++
			lat += net.Latency(pt.Host(f), pt.Host(to))
		})
		return hops, lat
	}
	for _, req := range reqs {
		c := plain.ChordRouteTotals(req.Origin, req.Key)
		rows[0].Hops.Add(float64(c.Hops))
		rows[0].Latency.Add(c.Latency)

		cp := pns.ChordRouteTotals(req.Origin, req.Key)
		rows[1].Hops.Add(float64(cp.Hops))
		rows[1].Latency.Add(cp.Latency)

		ph, pl := pastryLat(req.Origin, req.Key)
		rows[2].Hops.Add(float64(ph))
		rows[2].Latency.Add(pl)

		h := plain.RouteTotals(req.Origin, req.Key)
		rows[3].Hops.Add(float64(h.Hops))
		rows[3].Latency.Add(h.Latency)

		hp := pns.RouteTotals(req.Origin, req.Key)
		rows[4].Hops.Add(float64(hp.Hops))
		rows[4].Latency.Add(hp.Latency)
	}
	return &AlgoComparison{Scenario: s, Rows: rows}, nil
}

// Row returns the row with the given name, or nil.
func (a *AlgoComparison) Row(name string) *AlgoRow {
	for i := range a.Rows {
		if a.Rows[i].Name == name {
			return &a.Rows[i]
		}
	}
	return nil
}

// Table renders the multi-way comparison with latencies relative to Chord.
func (a *AlgoComparison) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Algorithm comparison on TS, %d nodes, %d requests (paper §6 future work)",
			a.Scenario.Nodes, a.Scenario.Requests),
		Header: []string{"algorithm", "avg_hops", "avg_latency_ms", "latency_vs_chord"},
	}
	base := a.Rows[0].Latency.Mean()
	for _, r := range a.Rows {
		t.AddRow(r.Name, f4(r.Hops.Mean()), f1(r.Latency.Mean()), pct(r.Latency.Mean()/base))
	}
	return t
}

// CANResult compares flat CAN with HIERAS-over-CAN on one network —
// substantiating the paper's §3.2 claim that the hierarchy transplants to
// CAN.
type CANResult struct {
	Scenario  Scenario
	Flat      AlgoRow
	Hier      AlgoRow
	LowerHops stats.Online
}

// CompareCAN runs the CAN transplant experiment.
func CompareCAN(s Scenario) (*CANResult, error) {
	s = s.withDefaults()
	rng := rand.New(rand.NewSource(s.Seed))
	m, err := transitstub.Generate(transitstub.DefaultConfig(s.Nodes), rng)
	if err != nil {
		return nil, err
	}
	net, err := topology.Attach(m, m.G, topology.AttachOptions{
		Hosts: s.Nodes, Routers: m.StubRouters, Spread: true,
	}, rng)
	if err != nil {
		return nil, err
	}
	h, err := can.BuildHierarchy(net, can.HierarchyConfig{
		Depth: s.Depth, Landmarks: s.Landmarks,
	}, rand.New(rand.NewSource(s.Seed+1)))
	if err != nil {
		return nil, err
	}
	res := &CANResult{Scenario: s, Flat: AlgoRow{Name: "can"}, Hier: AlgoRow{Name: "hieras-can"}}
	r2 := rand.New(rand.NewSource(s.Seed + 2))
	for i := 0; i < s.Requests; i++ {
		from := r2.Intn(h.N())
		p := can.Point{r2.Float64(), r2.Float64()}
		f := h.FlatRoute(from, p)
		res.Flat.Hops.Add(float64(f.Hops))
		res.Flat.Latency.Add(f.Latency)
		hh := h.Route(from, p)
		res.Hier.Hops.Add(float64(hh.Hops))
		res.Hier.Latency.Add(hh.Latency)
		res.LowerHops.Add(float64(hh.LowerHops))
	}
	return res, nil
}

// Table renders the CAN transplant comparison.
func (r *CANResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("HIERAS over CAN (paper §3.2 transplant), %d nodes, %d requests",
			r.Scenario.Nodes, r.Scenario.Requests),
		Header: []string{"algorithm", "avg_hops", "avg_latency_ms", "ratio"},
	}
	base := r.Flat.Latency.Mean()
	t.AddRow(r.Flat.Name, f4(r.Flat.Hops.Mean()), f1(r.Flat.Latency.Mean()), pct(1))
	t.AddRow(r.Hier.Name, f4(r.Hier.Hops.Mean()), f1(r.Hier.Latency.Mean()),
		pct(r.Hier.Latency.Mean()/base))
	return t
}
