// Package churn drives node dynamics on the live HIERAS node: real
// transport.Nodes in-process (Cluster on a Driver's direct net) join, leave
// gracefully and fail silently as Poisson processes on the eventsim
// clock, while lookups measure routing availability and a periodic
// maintenance round repairs the rings. The paper assumes Chord's failure
// machinery carries over to every layer (§3.3); this package quantifies
// that claim on the code that ships, in requests actually served.
package churn

import (
	"fmt"
	"math/rand"

	"repro/internal/eventsim"
	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/transport"
)

// Config parametrises a churn run. All times are in simulated seconds;
// Every* fields are mean exponential interarrival times (0 disables that
// process).
type Config struct {
	InitialNodes   int
	JoinEvery      float64
	LeaveEvery     float64
	FailEvery      float64
	LookupEvery    float64
	StabilizeEvery float64
	Duration       float64
	Seed           int64

	Depth     int
	Landmarks int
	// SuccessorListLen is each ring's successor-list length.
	SuccessorListLen int

	// Metrics, when non-nil, receives live churn counters
	// (churn_joins_total, churn_lookup_errors_total, ...) as the run
	// progresses, so a long simulation can be watched from a scrape
	// endpoint rather than only summarised afterwards.
	Metrics *metrics.Registry
}

func (c Config) validate() error {
	if c.InitialNodes < 1 {
		return fmt.Errorf("churn: need at least one initial node")
	}
	if c.Duration <= 0 {
		return fmt.Errorf("churn: duration must be positive")
	}
	if c.LookupEvery <= 0 {
		return fmt.Errorf("churn: lookup process required (LookupEvery > 0)")
	}
	if c.StabilizeEvery <= 0 {
		return fmt.Errorf("churn: stabilization period required")
	}
	return nil
}

// Result summarises a churn run.
type Result struct {
	Lookups        int
	Correct        int // destination was the true owner among live nodes
	Completed      int // routing finished without error
	Joins          int
	Leaves         int
	Fails          int
	FinalNodes     int
	Msgs           int64
	CorrectRate    float64
	CompletionRate float64
}

// Run executes a churn simulation over net.
func Run(net *topology.Network, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.InitialNodes > net.Hosts() {
		return nil, fmt.Errorf("churn: %d initial nodes exceed %d hosts", cfg.InitialNodes, net.Hosts())
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	c, err := NewCluster(net, cfg.Depth, cfg.Landmarks, cfg.SuccessorListLen, rng)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return drive(c, cfg, rng)
}

// drive populates c and runs cfg's event processes on it until
// cfg.Duration, leaving the survivors up.
func drive(c *Cluster, cfg Config, rng *rand.Rand) (*Result, error) {
	// Host pool management.
	free := make([]int, 0, c.net.Hosts())
	for h := c.net.Hosts() - 1; h >= cfg.InitialNodes; h-- {
		free = append(free, h)
	}
	randomLive := func() *transport.Node {
		live := c.Live()
		if len(live) == 0 {
			return nil
		}
		return live[rng.Intn(len(live))]
	}
	// One maintenance round after each join, as nodes with a stabilize
	// timer would run: joining everyone first leaves successor chains
	// that take a round per node to straighten.
	for h := 0; h < cfg.InitialNodes; h++ {
		if err := c.Join(h, randomLive()); err != nil {
			return nil, fmt.Errorf("churn: initial join %d: %w", h, err)
		}
		c.Round(1)
	}
	c.Round(1)
	c.Round(id.Bits) // the early joiners built their fingers in a small ring

	res := &Result{}
	ctr := newCounters(cfg.Metrics)
	var sim eventsim.Sim
	// every runs fn as a renewal process: it fires after each delay() and
	// draws the next delay once fn has returned.
	every := func(delay func() float64, fn func()) {
		var arm func()
		arm = func() { _ = sim.After(delay(), func() { defer arm(); fn() }) }
		arm()
	}
	poisson := func(mean float64, fn func()) {
		if mean > 0 {
			every(func() float64 { return rng.ExpFloat64() * mean }, fn)
		}
	}
	depart := func(graceful bool, count *int, total *metrics.Counter) func() {
		return func() {
			if len(c.Live()) <= 2 {
				return
			}
			free = append(free, c.Remove(rng.Intn(len(c.Live())), graceful))
			*count++
			total.Inc()
		}
	}
	poisson(cfg.JoinEvery, func() {
		if len(free) == 0 || len(c.Live()) == 0 {
			return
		}
		h := free[len(free)-1]
		if err := c.Join(h, randomLive()); err != nil {
			ctr.joinRetries.Inc() // the join ran into a failure; retry later
			return
		}
		free = free[:len(free)-1]
		res.Joins++
		ctr.joins.Inc()
	})
	poisson(cfg.LeaveEvery, depart(true, &res.Leaves, ctr.leaves))
	poisson(cfg.FailEvery, depart(false, &res.Fails, ctr.fails))
	poisson(cfg.LookupEvery, func() {
		from := randomLive()
		if from == nil {
			return
		}
		res.Lookups++
		ctr.lookups.Inc()
		key := id.Rand(rng)
		got, err := from.Lookup(c.ctx, key)
		if err != nil {
			ctr.lookupErrors.Inc()
			return
		}
		res.Completed++
		if got.Owner.Addr == trueOwner(c.Live(), key).Addr() {
			res.Correct++
		} else {
			ctr.wrongOwner.Inc()
		}
	})
	// One finger refresh per layer per period, as real Chord rotates
	// through fix_fingers.
	every(func() float64 { return cfg.StabilizeEvery }, func() { c.Round(1) })
	sim.RunUntil(cfg.Duration)

	res.FinalNodes = len(c.Live())
	res.Msgs = c.Msgs()
	if res.Lookups > 0 {
		res.CorrectRate = float64(res.Correct) / float64(res.Lookups)
		res.CompletionRate = float64(res.Completed) / float64(res.Lookups)
	}
	return res, nil
}

// trueOwner returns the key's owner among the live nodes: the first live
// identifier clockwise from the key.
func trueOwner(live []*transport.Node, key id.ID) *transport.Node {
	best, bestDist := live[0], id.Dist(key, live[0].ID())
	for _, n := range live[1:] {
		if d := id.Dist(key, n.ID()); d.Cmp(bestDist) < 0 {
			best, bestDist = n, d
		}
	}
	return best
}
