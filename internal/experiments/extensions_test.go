package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestCompareAlgorithms(t *testing.T) {
	res, err := CompareAlgorithms(Scenario{Nodes: 250, Requests: 800, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	chord := res.Row("chord")
	pastryRow := res.Row("pastry")
	hieras := res.Row("hieras")
	hierasPNS := res.Row("hieras+pns")
	chordPNS := res.Row("chord+pns")
	if chord == nil || pastryRow == nil || hieras == nil || hierasPNS == nil || chordPNS == nil {
		t.Fatal("missing algorithm rows")
	}
	if res.Row("nope") != nil {
		t.Error("unknown row should be nil")
	}
	// Every latency-aware algorithm must beat plain Chord on latency.
	base := chord.Latency.Mean()
	for _, r := range []*AlgoRow{chordPNS, pastryRow, hieras, hierasPNS} {
		if r.Latency.Mean() >= base {
			t.Errorf("%s latency %.1f should beat chord %.1f", r.Name, r.Latency.Mean(), base)
		}
	}
	// Stacking PNS on HIERAS should not hurt HIERAS.
	if hierasPNS.Latency.Mean() > hieras.Latency.Mean()*1.05 {
		t.Errorf("hieras+pns %.1f worse than hieras %.1f", hierasPNS.Latency.Mean(), hieras.Latency.Mean())
	}
	// Pastry corrects a hex digit per hop: far fewer hops than Chord.
	if pastryRow.Hops.Mean() >= chord.Hops.Mean() {
		t.Errorf("pastry hops %.2f should undercut chord %.2f", pastryRow.Hops.Mean(), chord.Hops.Mean())
	}
	var buf bytes.Buffer
	res.Table().Render(&buf)
	if !strings.Contains(buf.String(), "hieras+pns") {
		t.Error("rendered table incomplete")
	}
}

func TestCompareCAN(t *testing.T) {
	res, err := CompareCAN(Scenario{Nodes: 300, Requests: 800, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hier.Latency.Mean() >= res.Flat.Latency.Mean() {
		t.Errorf("hierarchical CAN %.1f should beat flat CAN %.1f",
			res.Hier.Latency.Mean(), res.Flat.Latency.Mean())
	}
	if res.LowerHops.Mean() <= 0 {
		t.Error("no lower-layer CAN hops recorded")
	}
	var buf bytes.Buffer
	res.Table().Render(&buf)
	if !strings.Contains(buf.String(), "hieras-can") {
		t.Error("rendered table incomplete")
	}
	// One seed, one table: ring spaces draw from a shared rng, so they
	// must be built in a fixed order (map order moved this row every run).
	for i := 0; i < 5; i++ {
		again, err := CompareCAN(Scenario{Nodes: 300, Requests: 800, Seed: 32})
		if err != nil {
			t.Fatal(err)
		}
		var b2 bytes.Buffer
		again.Table().Render(&b2)
		if b2.String() != buf.String() {
			t.Fatalf("same seed, different table on run %d:\n%s\nvs\n%s", i+2, buf.String(), b2.String())
		}
	}
}
