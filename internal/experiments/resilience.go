package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/cache"
	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ResilienceRow measures routing under one failure fraction.
type ResilienceRow struct {
	FailedFraction float64
	HierasOK       float64 // fraction of lookups delivered to the live owner
	ChordOK        float64
	HierasLatency  float64 // mean latency of successful lookups, ms
	ChordLatency   float64
}

// ResilienceResult sweeps the failed-node fraction on one overlay and
// measures delivery through the inherited Chord failure machinery
// (successor lists in every layer, dead-finger skipping) before any
// repair runs.
type ResilienceResult struct {
	Scenario Scenario
	Rows     []ResilienceRow
}

// FailureResilience runs the failure sweep.
func FailureResilience(s Scenario, fractions []float64) (*ResilienceResult, error) {
	s = s.withDefaults()
	o, err := BuildOverlay(s)
	if err != nil {
		return nil, err
	}
	res := &ResilienceResult{Scenario: s}
	for _, frac := range fractions {
		if frac < 0 || frac >= 1 {
			return nil, fmt.Errorf("experiments: failure fraction %v out of [0,1)", frac)
		}
		rng := rand.New(rand.NewSource(s.Seed + int64(frac*1000)))
		dead := make([]bool, o.N())
		for killed := 0; killed < int(frac*float64(o.N())); {
			i := rng.Intn(o.N())
			if !dead[i] {
				dead[i] = true
				killed++
			}
		}
		view, err := o.WithFailures(dead)
		if err != nil {
			return nil, err
		}
		row := ResilienceRow{FailedFraction: frac}
		var hOK, cOK, trials int
		var hLat, cLat stats.Online
		for trial := 0; trial < s.Requests; trial++ {
			from := rng.Intn(o.N())
			if dead[from] {
				continue
			}
			trials++
			key := id.Rand(rng)
			if r, err := view.RouteTotals(from, key); err == nil {
				hOK++
				hLat.Add(r.Latency)
			}
			if r, err := view.ChordRouteTotals(from, key); err == nil {
				cOK++
				cLat.Add(r.Latency)
			}
		}
		if trials > 0 {
			row.HierasOK = float64(hOK) / float64(trials)
			row.ChordOK = float64(cOK) / float64(trials)
		}
		row.HierasLatency = hLat.Mean()
		row.ChordLatency = cLat.Mean()
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the resilience sweep.
func (r *ResilienceResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Failure resilience before repair (%d nodes, r=%d per layer)",
			r.Scenario.Nodes, 4),
		Header: []string{"failed", "hieras_delivered", "chord_delivered", "hieras_ms", "chord_ms"},
	}
	for _, row := range r.Rows {
		t.AddRow(pct(row.FailedFraction), pct(row.HierasOK), pct(row.ChordOK),
			f1(row.HierasLatency), f1(row.ChordLatency))
	}
	return t
}

// CacheRow measures one cache configuration under a Zipf workload.
type CacheRow struct {
	Capacity    int
	Policy      cache.Policy
	HitRate     float64
	MeanLatency float64 // ms, all lookups
}

// CacheResult sweeps location-cache capacities under a Zipf workload —
// the "caching scheme of the underlying algorithm" the paper inherits
// (§3.2).
type CacheResult struct {
	Scenario    Scenario
	NoCacheMean float64
	Rows        []CacheRow
}

// CacheStudy runs the cache sweep.
func CacheStudy(s Scenario, capacities []int, policy cache.Policy) (*CacheResult, error) {
	s = s.withDefaults()
	o, err := BuildOverlay(s)
	if err != nil {
		return nil, err
	}
	res := &CacheResult{Scenario: s}
	// Baseline without caching.
	gen, err := workload.NewZipf(s.Seed+5, o.N(), 2000, 1.2)
	if err != nil {
		return nil, err
	}
	var base stats.Online
	for i := 0; i < s.Requests; i++ {
		req := gen.Next()
		base.Add(o.RouteTotals(req.Origin, req.Key).Latency)
	}
	res.NoCacheMean = base.Mean()
	for _, capa := range capacities {
		v, err := cache.New(o, capa, policy)
		if err != nil {
			return nil, err
		}
		if s.Metrics != nil {
			v.Instrument(s.Metrics, metrics.Label{Name: "capacity", Value: fmt.Sprint(capa)})
		}
		gen, err := workload.NewZipf(s.Seed+5, o.N(), 2000, 1.2)
		if err != nil {
			return nil, err
		}
		var lat stats.Online
		for i := 0; i < s.Requests; i++ {
			req := gen.Next()
			lat.Add(v.Lookup(req.Origin, req.Key).Latency)
		}
		res.Rows = append(res.Rows, CacheRow{
			Capacity:    capa,
			Policy:      policy,
			HitRate:     v.HitRate(),
			MeanLatency: lat.Mean(),
		})
	}
	return res, nil
}

// Table renders the cache sweep.
func (r *CacheResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Location caching under Zipf(1.2) workload (%d nodes; no cache: %.1f ms)",
			r.Scenario.Nodes, r.NoCacheMean),
		Header: []string{"capacity", "policy", "hit_rate", "mean_latency_ms", "vs_no_cache"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprint(row.Capacity), row.Policy.String(), pct(row.HitRate),
			f1(row.MeanLatency), pct(row.MeanLatency/r.NoCacheMean))
	}
	return t
}
