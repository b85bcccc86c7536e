package experiments

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/cache"
	"repro/internal/churn"
	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Outcomes is how one system's lookups ended, each judged against the
// key's true live owner: the first live identifier at or after the key.
type Outcomes struct {
	// Shares of the lookups: the true live owner named, a failed node
	// named, another live node named, or an error.
	Delivered, DeadOwner, WrongOwner, Errors float64
	// Latency is the mean latency of the delivered lookups in ms, charged
	// from each lookup's trace (see liveResilience).
	Latency float64
}

// ResilienceRow measures lookups under one failed-host fraction; index 0
// is before any maintenance round, index 1 after one.
type ResilienceRow struct {
	FailedFraction float64
	Hieras, Chord  [2]Outcomes
}

// ResilienceResult sweeps the failed-host fraction over live clusters
// (paper §3.3: HIERAS inherits Chord's failure machinery in every layer).
// Each fraction installs the scenario's hosts twice, at the scenario's
// depth (HIERAS) and at depth 1 (Chord), fails the same seeded hosts in
// both silently, and runs the same seeded lookups before any repair and
// after one maintenance round.
type ResilienceResult struct {
	Scenario Scenario
	Rows     []ResilienceRow
}

// FailureResilience runs the failure sweep.
func FailureResilience(s Scenario, fractions []float64) (*ResilienceResult, error) {
	s = s.withDefaults()
	net, err := attach(s, rand.New(rand.NewSource(s.Seed)))
	if err != nil {
		return nil, err
	}
	res := &ResilienceResult{Scenario: s}
	for _, frac := range fractions {
		if frac < 0 || frac >= 1 {
			return nil, fmt.Errorf("experiments: failure fraction %v out of [0,1)", frac)
		}
		rng := rand.New(rand.NewSource(s.Seed + int64(frac*1000)))
		hosts := rng.Perm(s.Nodes)
		dead, alive := hosts[:int(frac*float64(s.Nodes))], hosts[int(frac*float64(s.Nodes)):]
		lookups := make([]lookup, s.Requests)
		for i := range lookups {
			lookups[i] = lookup{alive[rng.Intn(len(alive))], id.Rand(rng)}
		}
		row := ResilienceRow{FailedFraction: frac}
		if row.Hieras, err = liveResilience(net, s, s.Depth, dead, lookups); err != nil {
			return nil, err
		}
		if row.Chord, err = liveResilience(net, s, 1, dead, lookups); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// lookup is one seeded request: an origin host and a key.
type lookup struct {
	origin int
	key    id.ID
}

// liveResilience installs a classic cluster of the given depth on every
// host of net, fails the dead hosts silently and runs the lookups twice:
// before any round and after one. A delivered lookup's latency is charged
// from its trace: each successful call is a hop from the last node reached
// (first the origin) to the callee, then the final forward to the owner,
// as the oracle's route charges it; a failed call costs nothing.
func liveResilience(net *topology.Network, s Scenario, depth int, dead []int, lookups []lookup) ([2]Outcomes, error) {
	var out [2]Outcomes
	c, err := churn.NewCluster(net, depth, s.Landmarks, 0, rand.New(rand.NewSource(s.Seed+17)))
	if err != nil {
		return out, err
	}
	defer c.Close()
	if err := c.Install(net.Hosts()); err != nil {
		return out, err
	}
	byHost := slices.Clone(c.Live())
	hostOf := make(map[string]int, len(byHost)) // live nodes only
	for h, n := range byHost {
		hostOf[n.Addr()] = h
	}
	for _, h := range dead {
		delete(hostOf, byHost[h].Addr())
		c.Remove(slices.Index(c.Live(), byHost[h]), false)
	}
	ring := slices.SortedFunc(slices.Values(c.Live()), func(a, b *transport.Node) int { return a.ID().Cmp(b.ID()) })

	var tr transport.Trace
	ctx := transport.WithTrace(c.Context(), &tr)
	for round := range out {
		if round == 1 {
			c.Round(1)
		}
		var delivered, deadOwner, wrongOwner, errs int
		var lat stats.Online
		for _, l := range lookups {
			j, _ := slices.BinarySearchFunc(ring, l.key, func(n *transport.Node, key id.ID) int { return n.ID().Cmp(key) })
			owner := ring[j%len(ring)].Addr()
			tr.Calls = tr.Calls[:0]
			r, err := byHost[l.origin].Lookup(ctx, l.key)
			_, live := hostOf[r.Owner.Addr]
			switch {
			case err != nil:
				errs++
			case r.Owner.Addr == owner:
				delivered++
				at, ms := l.origin, 0.0
				for _, call := range tr.Calls {
					if !call.Failed {
						ms += net.Latency(at, hostOf[call.Addr])
						at = hostOf[call.Addr]
					}
				}
				lat.Add(ms + net.Latency(at, hostOf[owner]))
			case live:
				wrongOwner++
			default:
				deadOwner++
			}
		}
		share := func(k int) float64 { return float64(k) / float64(len(lookups)) }
		out[round] = Outcomes{Delivered: share(delivered), DeadOwner: share(deadOwner),
			WrongOwner: share(wrongOwner), Errors: share(errs), Latency: lat.Mean()}
	}
	return out, nil
}

// Table renders the resilience sweep, one line per fraction, system and
// round.
func (r *ResilienceResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Failure resilience on live nodes (%d nodes, r=4 per layer; rounds run after a silent failure; "+
			"ms per delivered lookup, a failed call costs nothing)", r.Scenario.Nodes),
		Header: []string{"failed", "system", "rounds", "delivered", "dead_owner", "wrong_owner", "error", "ms"},
	}
	for _, row := range r.Rows {
		for round := range row.Hieras {
			for i, o := range [2]Outcomes{row.Hieras[round], row.Chord[round]} {
				t.AddRow(pct(row.FailedFraction), [2]string{"hieras", "chord"}[i], fmt.Sprint(round),
					pct(o.Delivered), pct(o.DeadOwner), pct(o.WrongOwner), pct(o.Errors), f1(o.Latency))
			}
		}
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
