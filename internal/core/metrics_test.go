package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestLayerStatsEmptyLayer is the regression test for the MinSize
// sentinel: a layer with zero rings must report MinSize == MaxSize == 0,
// not the 1<<30 placeholder.
func TestLayerStatsEmptyLayer(t *testing.T) {
	o := &Overlay{rings: []map[string]*Ring{{}}}
	got := o.LayerStats()
	if len(got) != 1 {
		t.Fatalf("LayerStats returned %d entries, want 1", len(got))
	}
	s := got[0]
	if s.Rings != 0 || s.MinSize != 0 || s.MaxSize != 0 || s.MeanSize != 0 {
		t.Errorf("empty layer reported %+v, want all-zero sizes", s)
	}
	if s.Layer != 2 {
		t.Errorf("Layer = %d, want 2", s.Layer)
	}
}

// TestRouteMetricsMatchResults builds an instrumented overlay, routes a
// batch of keys, and checks the per-layer hop counters against the hop
// lists the RouteResults themselves report.
func TestRouteMetricsMatchResults(t *testing.T) {
	reg := metrics.NewRegistry()
	o := buildOverlay(t, 40, Config{Depth: 2, Metrics: reg}, 7)

	rng := rand.New(rand.NewSource(9))
	perLayer := make([]uint64, 2)
	routes := 0
	for i := 0; i < 50; i++ {
		res := o.Route(rng.Intn(o.N()), KeyID(fmt.Sprintf("k%d", i)))
		routes++
		for _, h := range res.Hops {
			perLayer[h.Layer-1]++
		}
	}

	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for l, want := range perLayer {
		line := fmt.Sprintf("hops_total{layer=%q} %d", fmt.Sprint(l+1), want)
		if !strings.Contains(out, line) {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
	if !strings.Contains(out, fmt.Sprintf("routes_total %d", routes)) {
		t.Errorf("routes_total != %d:\n%s", routes, out)
	}
	if !strings.Contains(out, "ring_climbs_total") {
		t.Error("ring_climbs_total not registered")
	}
}

// afterPrefix returns the remainder of the line in out starting with
// prefix.
func afterPrefix(t *testing.T, out, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) {
			return strings.TrimPrefix(line, prefix)
		}
	}
	t.Fatalf("no line with prefix %q in:\n%s", prefix, out)
	return ""
}
