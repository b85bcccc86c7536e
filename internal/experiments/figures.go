package experiments

import (
	"fmt"

	"repro/internal/stats"
)

// ---------------------------------------------------------------------------
// Figures 2 and 3: routing cost versus network size, three topology models.
// ---------------------------------------------------------------------------

// ScaleRow is one (model, size) measurement.
type ScaleRow struct {
	Nodes int
	Cmp   *Comparison
}

// ScaleSweep holds one model's size sweep.
type ScaleSweep struct {
	Model string
	Rows  []ScaleRow
}

// ScaleResult holds the full Figures 2/3 data set.
type ScaleResult struct {
	Sweeps []*ScaleSweep
}

// DefaultSizes mirrors the paper's node-count sweep at a scale factor:
// paper sizes are 1000..10000 step 1000 (Inet starting at 3000).
func DefaultSizes(scale float64) map[string][]int {
	mk := func(from, to, step int) []int {
		var out []int
		for n := from; n <= to; n += step {
			v := int(float64(n) * scale)
			if v < 50 {
				v = 50
			}
			out = append(out, v)
		}
		return out
	}
	return map[string][]int{
		ModelTS:    mk(1000, 10000, 1000),
		ModelInet:  mk(3000, 10000, 1000),
		ModelBRITE: mk(1000, 10000, 1000),
	}
}

// Figures2and3 runs the size sweep for every model. Both figures read the
// same runs: Figure 2 reports hops, Figure 3 latency.
func Figures2and3(base Scenario, sizesByModel map[string][]int) (*ScaleResult, error) {
	res := &ScaleResult{}
	for _, model := range []string{ModelTS, ModelInet, ModelBRITE} {
		sizes, ok := sizesByModel[model]
		if !ok {
			continue
		}
		sweep := &ScaleSweep{Model: model}
		for _, n := range sizes {
			s := base
			s.Model = model
			s.Nodes = n
			s.Seed = base.Seed + int64(n)
			cmp, err := RunComparison(s)
			if err != nil {
				return nil, fmt.Errorf("model %s n=%d: %w", model, n, err)
			}
			sweep.Rows = append(sweep.Rows, ScaleRow{Nodes: n, Cmp: cmp})
		}
		res.Sweeps = append(res.Sweeps, sweep)
	}
	return res, nil
}

// HopsTable renders Figure 2 (average number of routing hops vs size).
func (r *ScaleResult) HopsTable() *Table {
	t := &Table{
		Title:  "Figure 2: HIERAS vs Chord, average number of routing hops",
		Header: []string{"model", "nodes", "chord_hops", "hieras_hops", "overhead"},
	}
	for _, sw := range r.Sweeps {
		for _, row := range sw.Rows {
			t.AddRow(sw.Model, fmt.Sprint(row.Nodes),
				f4(row.Cmp.Chord.Hops.Mean()), f4(row.Cmp.Hieras.Hops.Mean()),
				pct(row.Cmp.HopRatio()-1))
		}
	}
	return t
}

// LatencyTable renders Figure 3 (average routing latency vs size).
func (r *ScaleResult) LatencyTable() *Table {
	t := &Table{
		Title:  "Figure 3: HIERAS vs Chord, average routing latency (ms)",
		Header: []string{"model", "nodes", "chord_ms", "hieras_ms", "hieras/chord"},
	}
	for _, sw := range r.Sweeps {
		for _, row := range sw.Rows {
			t.AddRow(sw.Model, fmt.Sprint(row.Nodes),
				f1(row.Cmp.Chord.Latency.Mean()), f1(row.Cmp.Hieras.Latency.Mean()),
				pct(row.Cmp.LatencyRatio()))
		}
	}
	return t
}

// ---------------------------------------------------------------------------
// Figures 4 and 5: routing cost distributions on one large TS network.
// ---------------------------------------------------------------------------

// DistributionResult wraps the single large comparison backing Figures 4/5.
type DistributionResult struct {
	Cmp *Comparison
}

// Figures4and5 runs the distribution experiment (paper: 10000-node TS
// network, 100000 requests).
func Figures4and5(base Scenario) (*DistributionResult, error) {
	s := base
	s.Model = ModelTS
	cmp, err := RunComparison(s)
	if err != nil {
		return nil, err
	}
	return &DistributionResult{Cmp: cmp}, nil
}

// PDFTable renders Figure 4: the PDF of routing hops for Chord, HIERAS,
// and HIERAS's top-layer hops.
func (d *DistributionResult) PDFTable() *Table {
	t := &Table{
		Title:  "Figure 4: PDF of the number of routing hops",
		Header: []string{"hops", "chord_pdf", "hieras_pdf", "hieras_top_layer_pdf"},
	}
	ch := d.Cmp.HopsHistChord.PDF()
	hi := d.Cmp.HopsHistHieras.PDF()
	top := d.Cmp.HopsHistTop.PDF()
	maxLen := len(ch)
	if len(hi) > maxLen {
		maxLen = len(hi)
	}
	if len(top) > maxLen {
		maxLen = len(top)
	}
	for i := 0; i < maxLen; i++ {
		get := func(pts []stats.Point) float64 {
			if i < len(pts) {
				return pts[i].Y
			}
			return 0
		}
		t.AddRow(fmt.Sprint(i), f4(get(ch)), f4(get(hi)), f4(get(top)))
	}
	return t
}

// CDFTable renders Figure 5: the CDF of routing latency.
func (d *DistributionResult) CDFTable() *Table {
	t := &Table{
		Title:  "Figure 5: CDF of routing latency (20 ms buckets)",
		Header: []string{"latency_ms", "chord_cdf", "hieras_cdf"},
	}
	ch := d.Cmp.LatHistChord.CDF()
	hi := d.Cmp.LatHistHieras.CDF()
	maxLen := len(ch)
	if len(hi) > maxLen {
		maxLen = len(hi)
	}
	for i := 0; i < maxLen; i++ {
		get := func(pts []stats.Point) float64 {
			if i < len(pts) {
				return pts[i].Y
			}
			return 1
		}
		x := float64(i+1) * 20
		t.AddRow(f1(x), f4(get(ch)), f4(get(hi)))
	}
	return t
}

// SummaryTable renders the §4.3 headline numbers next to the paper's.
func (d *DistributionResult) SummaryTable() *Table {
	c := d.Cmp
	t := &Table{
		Title:  "Section 4.3 summary (paper values in parentheses)",
		Header: []string{"metric", "measured", "paper"},
	}
	t.AddRow("chord avg hops", f4(c.Chord.Hops.Mean()), "6.4933")
	t.AddRow("hieras avg hops", f4(c.Hieras.Hops.Mean()), "6.5937")
	t.AddRow("hop overhead", pct(c.HopRatio()-1), "1.55%")
	t.AddRow("chord avg latency ms", f1(c.Chord.Latency.Mean()), "511.47")
	t.AddRow("hieras avg latency ms", f1(c.Hieras.Latency.Mean()), "276.53")
	t.AddRow("latency ratio", pct(c.LatencyRatio()), "54.07%")
	t.AddRow("lower-layer hop share", pct(c.LowerHopShare()), "71.38%")
	t.AddRow("lower-layer latency share", pct(c.LowerLatencyShare()), "47.24%")
	t.AddRow("top-layer link delay ms", f1(c.TopLink.Mean()), "79")
	t.AddRow("lower-layer link delay ms", f1(c.LowerLink.Mean()), "27.758")
	return t
}

// ---------------------------------------------------------------------------
// Figures 6 and 7: effect of the number of landmark nodes.
// ---------------------------------------------------------------------------

// LandmarkRow is one landmark-count measurement.
type LandmarkRow struct {
	Landmarks int
	Cmp       *Comparison
}

// LandmarkSweep holds the Figures 6/7 data.
type LandmarkSweep struct {
	Rows []LandmarkRow
}

// Figures6and7 varies the landmark count (paper: 2..12 on a 10000-node TS
// network).
func Figures6and7(base Scenario, counts []int) (*LandmarkSweep, error) {
	res := &LandmarkSweep{}
	for _, lm := range counts {
		s := base
		s.Model = ModelTS
		s.Landmarks = lm
		s.Seed = base.Seed + int64(lm)*7919
		cmp, err := RunComparison(s)
		if err != nil {
			return nil, fmt.Errorf("landmarks=%d: %w", lm, err)
		}
		res.Rows = append(res.Rows, LandmarkRow{Landmarks: lm, Cmp: cmp})
	}
	return res, nil
}

// HopsTable renders Figure 6.
func (r *LandmarkSweep) HopsTable() *Table {
	t := &Table{
		Title:  "Figure 6: average routing hops vs number of landmarks",
		Header: []string{"landmarks", "chord_hops", "hieras_hops", "hieras_lower_hops"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprint(row.Landmarks),
			f4(row.Cmp.Chord.Hops.Mean()), f4(row.Cmp.Hieras.Hops.Mean()),
			f4(row.Cmp.LowerHops.Mean()))
	}
	return t
}

// LatencyTable renders Figure 7.
func (r *LandmarkSweep) LatencyTable() *Table {
	t := &Table{
		Title:  "Figure 7: average routing latency vs number of landmarks",
		Header: []string{"landmarks", "chord_ms", "hieras_ms", "hieras/chord"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprint(row.Landmarks),
			f1(row.Cmp.Chord.Latency.Mean()), f1(row.Cmp.Hieras.Latency.Mean()),
			pct(row.Cmp.LatencyRatio()))
	}
	return t
}

// ---------------------------------------------------------------------------
// Figures 8 and 9: effect of hierarchy depth.
// ---------------------------------------------------------------------------

// DepthRow is one (size, depth) measurement.
type DepthRow struct {
	Nodes int
	Depth int
	Cmp   *Comparison
}

// DepthSweep holds the Figures 8/9 data.
type DepthSweep struct {
	Rows []DepthRow
}

// Figures8and9 varies hierarchy depth and network size (paper: depths 2-4,
// 5000-10000 nodes, 6 landmarks, TS model).
func Figures8and9(base Scenario, sizes, depths []int) (*DepthSweep, error) {
	res := &DepthSweep{}
	for _, n := range sizes {
		for _, depth := range depths {
			s := base
			s.Model = ModelTS
			s.Nodes = n
			s.Depth = depth
			if s.Landmarks == 0 {
				s.Landmarks = 6
			}
			s.Seed = base.Seed + int64(n)*31 // same topology across depths
			cmp, err := RunComparison(s)
			if err != nil {
				return nil, fmt.Errorf("n=%d depth=%d: %w", n, depth, err)
			}
			res.Rows = append(res.Rows, DepthRow{Nodes: n, Depth: depth, Cmp: cmp})
		}
	}
	return res, nil
}

// HopsTable renders Figure 8.
func (r *DepthSweep) HopsTable() *Table {
	t := &Table{
		Title:  "Figure 8: average routing hops vs hierarchy depth",
		Header: []string{"nodes", "depth", "hieras_hops", "chord_hops"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprint(row.Nodes), fmt.Sprint(row.Depth),
			f4(row.Cmp.Hieras.Hops.Mean()), f4(row.Cmp.Chord.Hops.Mean()))
	}
	return t
}

// LatencyTable renders Figure 9.
func (r *DepthSweep) LatencyTable() *Table {
	t := &Table{
		Title:  "Figure 9: average routing latency vs hierarchy depth (ms)",
		Header: []string{"nodes", "depth", "hieras_ms", "chord_ms", "hieras/chord"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprint(row.Nodes), fmt.Sprint(row.Depth),
			f1(row.Cmp.Hieras.Latency.Mean()), f1(row.Cmp.Chord.Latency.Mean()),
			pct(row.Cmp.LatencyRatio()))
	}
	return t
}
