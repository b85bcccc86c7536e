package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cache"
)

func TestFailureResilience(t *testing.T) {
	res, err := FailureResilience(Scenario{Nodes: 150, Requests: 300, Seed: 41}, []float64{0, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	healthy := res.Rows[0]
	if healthy.HierasOK != 1 || healthy.ChordOK != 1 {
		t.Errorf("healthy overlay should deliver everything: %+v", healthy)
	}
	broken := res.Rows[1]
	if broken.HierasOK < 0.5 || broken.ChordOK < 0.5 {
		t.Errorf("20%% failures should not halve delivery: %+v", broken)
	}
	var buf bytes.Buffer
	res.Table().Render(&buf)
	if !strings.Contains(buf.String(), "Failure resilience") {
		t.Error("missing title")
	}
	if _, err := FailureResilience(Scenario{Nodes: 50, Requests: 10, Seed: 1}, []float64{1.5}); err == nil {
		t.Error("fraction >= 1 accepted")
	}
}

func TestCacheStudy(t *testing.T) {
	res, err := CacheStudy(Scenario{Nodes: 120, Requests: 2500, Seed: 42}, []int{8, 256}, cache.CacheAtOrigin)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	small, big := res.Rows[0], res.Rows[1]
	if big.HitRate <= small.HitRate {
		t.Errorf("larger cache should hit more: %.3f vs %.3f", big.HitRate, small.HitRate)
	}
	if big.MeanLatency >= res.NoCacheMean {
		t.Errorf("caching (%.1f ms) should beat no cache (%.1f ms)", big.MeanLatency, res.NoCacheMean)
	}
	var buf bytes.Buffer
	res.Table().Render(&buf)
	if !strings.Contains(buf.String(), "Location caching") {
		t.Error("missing title")
	}
}
