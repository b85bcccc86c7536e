package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// smallBase keeps unit tests fast; benchmarks and cmd/hieras-bench run the
// larger sweeps.
func smallBase() Scenario {
	return Scenario{Nodes: 200, Requests: 500, Seed: 7}
}

func TestBuildOverlayModels(t *testing.T) {
	for _, model := range []string{ModelTS, ModelInet, ModelBRITE} {
		s := smallBase()
		s.Model = model
		o, err := BuildOverlay(s)
		if err != nil {
			t.Fatalf("model %s: %v", model, err)
		}
		if o.N() != s.Nodes {
			t.Errorf("model %s: N = %d", model, o.N())
		}
	}
	s := smallBase()
	s.Model = "nope"
	if _, err := BuildOverlay(s); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestRunComparisonInvariants(t *testing.T) {
	cmp, err := RunComparison(smallBase())
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Hieras.Hops.N() != 500 || cmp.Chord.Hops.N() != 500 {
		t.Fatalf("request counts wrong: %d/%d", cmp.Hieras.Hops.N(), cmp.Chord.Hops.N())
	}
	if cmp.Hieras.Latency.Mean() <= 0 || cmp.Chord.Latency.Mean() <= 0 {
		t.Error("latencies must be positive")
	}
	if r := cmp.HopRatio(); r < 0.9 || r > 1.5 {
		t.Errorf("hop ratio %v implausible", r)
	}
	if r := cmp.LatencyRatio(); r >= 1 {
		t.Errorf("latency ratio %v: HIERAS should win on TS", r)
	}
	if s := cmp.LowerHopShare(); s <= 0 || s >= 1 {
		t.Errorf("lower hop share %v out of (0,1)", s)
	}
	if s := cmp.LowerLatencyShare(); s <= 0 || s >= 1 {
		t.Errorf("lower latency share %v out of (0,1)", s)
	}
	// Lower-ring links must be cheaper than top-ring links on average —
	// the mechanism behind the whole paper.
	if cmp.LowerLink.Mean() >= cmp.TopLink.Mean() {
		t.Errorf("lower link mean %.1f >= top link mean %.1f",
			cmp.LowerLink.Mean(), cmp.TopLink.Mean())
	}
	// Histograms account for every request.
	if cmp.HopsHistHieras.N() != 500 || cmp.LatHistChord.N() != 500 {
		t.Error("histogram populations wrong")
	}
}

func TestRunComparisonDeterministic(t *testing.T) {
	a, err := RunComparison(smallBase())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunComparison(smallBase())
	if err != nil {
		t.Fatal(err)
	}
	if a.Hieras.Latency.Mean() != b.Hieras.Latency.Mean() ||
		a.Chord.Hops.Mean() != b.Chord.Hops.Mean() {
		t.Error("same scenario produced different results")
	}
}

func TestFigures2and3Small(t *testing.T) {
	base := smallBase()
	sizes := map[string][]int{ModelTS: {100, 200}, ModelBRITE: {100}}
	res, err := Figures2and3(base, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sweeps) != 2 {
		t.Fatalf("sweeps = %d", len(res.Sweeps))
	}
	var buf bytes.Buffer
	res.HopsTable().Render(&buf)
	res.LatencyTable().Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "Figure 2") || !strings.Contains(out, "Figure 3") {
		t.Error("figure titles missing")
	}
	if strings.Count(out, "\nts") < 2 {
		t.Errorf("expected ts rows in output:\n%s", out)
	}
}

func TestFigures4and5Small(t *testing.T) {
	res, err := Figures4and5(smallBase())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.PDFTable().Render(&buf)
	res.CDFTable().Render(&buf)
	res.SummaryTable().Render(&buf)
	out := buf.String()
	for _, want := range []string{"Figure 4", "Figure 5", "lower-layer hop share"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// CDF last row must be ~1 for both columns.
	cdf := res.CDFTable()
	last := cdf.Rows[len(cdf.Rows)-1]
	if last[1] != "1.0000" && last[2] != "1.0000" {
		t.Errorf("CDF should reach 1, last row %v", last)
	}
}

func TestFigures6and7Small(t *testing.T) {
	res, err := Figures6and7(smallBase(), []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0].Landmarks != 2 || res.Rows[1].Landmarks != 4 {
		t.Error("landmark counts wrong")
	}
	var buf bytes.Buffer
	res.HopsTable().Render(&buf)
	res.LatencyTable().Render(&buf)
	if !strings.Contains(buf.String(), "Figure 6") {
		t.Error("missing Figure 6 title")
	}
}

func TestFigures8and9Small(t *testing.T) {
	res, err := Figures8and9(smallBase(), []int{150}, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var buf bytes.Buffer
	res.HopsTable().Render(&buf)
	res.LatencyTable().Render(&buf)
	if !strings.Contains(buf.String(), "Figure 9") {
		t.Error("missing Figure 9 title")
	}
}

func TestTable1MatchesPaperStructure(t *testing.T) {
	tbl, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Node A's order is the paper's 1012.
	if tbl.Rows[0][5] != "1012" {
		t.Errorf("node A order = %q", tbl.Rows[0][5])
	}
	// C and D share the ring prefix "220".
	if tbl.Rows[2][5][:3] != "220" || tbl.Rows[3][5][:3] != "220" {
		t.Errorf("C/D orders %q %q", tbl.Rows[2][5], tbl.Rows[3][5])
	}
}

func TestTable2Structure(t *testing.T) {
	tbl, err := Table2(Scenario{Nodes: 120, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(tbl.Rows))
	}
	// Every layer-2 successor must be in the node's own ring; layer-1
	// successors may be anywhere. Extract the node's ring from the title.
	title := tbl.Title
	i := strings.Index(title, "ring \"")
	if i < 0 {
		t.Fatalf("title %q lacks ring name", title)
	}
	ringName := title[i+6 : i+6+strings.Index(title[i+6:], "\"")]
	for _, row := range tbl.Rows {
		if row[4] != ringName {
			t.Errorf("layer-2 successor in foreign ring %q (want %q)", row[4], ringName)
		}
	}
}

func TestTable3Structure(t *testing.T) {
	tbl, err := Table3(Scenario{Nodes: 80, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("no ring tables rendered")
	}
	for _, row := range tbl.Rows {
		if !strings.HasPrefix(row[1], "2:") {
			t.Errorf("ringname %q should be layer-qualified", row[1])
		}
	}
}

func TestRingStatsTable(t *testing.T) {
	tbl, err := RingStatsTable(Scenario{Nodes: 100, Seed: 11, Depth: 3, Landmarks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want one per lower layer", len(tbl.Rows))
	}
}

func TestOverheadAnalysis(t *testing.T) {
	res, err := Overhead(Scenario{Nodes: 60, Seed: 12, Requests: 100}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	d1, d2 := res.Rows[0], res.Rows[1]
	if d1.Depth != 1 || d2.Depth != 2 {
		t.Fatal("depth order wrong")
	}
	// HIERAS maintains strictly more state and pays more per join.
	if d2.State.DistinctFingersPerNode < d1.State.DistinctFingersPerNode {
		t.Error("depth 2 should track at least as many distinct fingers")
	}
	if d2.JoinMsgs <= d1.JoinMsgs {
		t.Errorf("depth-2 join (%.1f msgs) should cost more than depth-1 (%.1f)",
			d2.JoinMsgs, d1.JoinMsgs)
	}
	again, err := Overhead(Scenario{Nodes: 60, Seed: 12, Requests: 100}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Errorf("same seed, different overhead table:\n%+v\n%+v", res.Rows, again.Rows)
	}
	if d2.StabilizeMsgsPerNode <= d1.StabilizeMsgsPerNode {
		t.Errorf("a depth-2 maintenance round (%.1f msgs/node) should cost more than depth-1 (%.1f)",
			d2.StabilizeMsgsPerNode, d1.StabilizeMsgsPerNode)
	}
	// What one lower ring adds to a node's maintenance round is the
	// machine-independent price of depth: 18.17 requests at this
	// population with one entry-point consultation per ring per round
	// (consulting it twice, once to scan and once to re-announce, cost
	// 24.65).
	if added := d2.StabilizeMsgsPerNode - d1.StabilizeMsgsPerNode; added > 19 {
		t.Errorf("a lower ring adds %.2f maintenance requests per node per round, want <= 19", added)
	}
	var buf bytes.Buffer
	res.Table().Render(&buf)
	if !strings.Contains(buf.String(), "Overhead analysis") {
		t.Error("missing title")
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{Header: []string{"a", "b"}}
	tbl.AddRow("1", "2")
	var buf bytes.Buffer
	if err := tbl.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "a,b\n1,2\n" {
		t.Errorf("csv = %q", buf.String())
	}
}

func TestDefaultSizes(t *testing.T) {
	sizes := DefaultSizes(1.0)
	if len(sizes[ModelTS]) != 10 || sizes[ModelTS][0] != 1000 || sizes[ModelTS][9] != 10000 {
		t.Errorf("ts sizes %v", sizes[ModelTS])
	}
	if sizes[ModelInet][0] != 3000 {
		t.Errorf("inet must start at 3000, got %v", sizes[ModelInet][0])
	}
	small := DefaultSizes(0.05)
	for _, v := range small[ModelTS] {
		if v < 50 {
			t.Errorf("scaled size %d below floor", v)
		}
	}
}

func TestRenderAll(t *testing.T) {
	base := smallBase()
	scale, err := Figures2and3(base, map[string][]int{ModelTS: {100}})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := Figures4and5(base)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := Figures6and7(base, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	depth, err := Figures8and9(base, []int{100}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, tbl := range []*Table{
		scale.HopsTable(), scale.LatencyTable(),
		dist.PDFTable(), dist.CDFTable(), dist.SummaryTable(),
		lm.HopsTable(), lm.LatencyTable(),
		depth.HopsTable(), depth.LatencyTable(),
	} {
		tbl.Render(&buf)
	}
	for _, fig := range []string{"Figure 2", "Figure 3", "Figure 4", "Figure 5",
		"Figure 6", "Figure 7", "Figure 8", "Figure 9"} {
		if !strings.Contains(buf.String(), fig) {
			t.Errorf("rendered figures missing %s", fig)
		}
	}
}
