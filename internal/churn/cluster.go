package churn

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Cluster is an in-process HIERAS deployment on a Driver: real
// transport.Nodes in classic route mode, one per topology host. Host h
// listens as "h<h>", so node identifiers are the same on every run;
// landmarks are names only — a node's probe of landmark "lm<i>" is
// answered from the topology model, so no landmark process exists (and
// the global ring's merge scan through the landmarks costs calls the
// driver refuses as dials to dead addresses, whose retry waits cost no
// time on the driver's clock, and no messages).
type Cluster struct {
	*Driver
	net     *topology.Network
	rng     *rand.Rand       // ping noise, drawn on the caller's goroutine
	cfg     transport.Config // what every node starts with, less its prober
	routers map[string]int   // landmark name -> underlay router
	hosts   []int            // hosts[i] is Live()[i]'s topology host
}

// NewCluster prepares an empty cluster over net. depth and succListLen are
// handed to every node unchanged (0 = the transport defaults, 2 and 4);
// landmarks routers (default 4) are selected up front for depth > 1.
func NewCluster(net *topology.Network, depth, landmarks, succListLen int, rng *rand.Rand) (*Cluster, error) {
	c := &Cluster{net: net, rng: rng, routers: make(map[string]int)}
	c.cfg = transport.Config{
		Depth:       depth,
		SuccListLen: succListLen,
		RouteMode:   transport.RouteClassic,
	}
	if depth != 1 {
		if landmarks == 0 {
			landmarks = 4
		}
		routers, err := topology.SelectLandmarks(net, landmarks, topology.LandmarkSpread, rng)
		if err != nil {
			return nil, err
		}
		for i, r := range routers {
			name := fmt.Sprintf("lm%d", i)
			c.cfg.Landmarks = append(c.cfg.Landmarks, name)
			c.routers[name] = r
		}
	}
	c.Driver = NewDriver()
	return c, nil
}

// topoProber answers one host's landmark probes from the topology model.
type topoProber struct {
	c    *Cluster
	host int
}

func (p topoProber) Latency(_ context.Context, _ wire.Caller, landmark string) (float64, error) {
	r, ok := p.c.routers[landmark]
	if !ok {
		return 0, fmt.Errorf("churn: unknown landmark %q", landmark)
	}
	return p.c.net.Ping(p.host, r, p.c.rng), nil
}

// Join starts a node for host and integrates it the way hieras-node does:
// the §3.3 join through boot, then a full finger build. A nil boot creates
// the network. A node whose join fails is closed and forgotten.
func (c *Cluster) Join(host int, boot *transport.Node) error {
	n, err := c.start(host)
	if err != nil {
		return err
	}
	if boot == nil {
		err = n.CreateNetwork()
	} else if err = n.Join(boot.Addr()); err == nil {
		err = n.BuildAllFingers()
	}
	if err != nil {
		c.Remove(len(c.hosts)-1, false)
	}
	return err
}

// Install starts a node for each of hosts 0 to hosts-1 and writes into
// them, without a message, the settled overlay they form
// (transport.Install): what their joins and maintenance would reach.
func (c *Cluster) Install(hosts int) error {
	for h := 0; h < hosts; h++ {
		if _, err := c.start(h); err != nil {
			return err
		}
	}
	return transport.Install(c.Live())
}

// start starts a node for host, joined to nothing yet.
func (c *Cluster) start(host int) (*transport.Node, error) {
	cfg := c.cfg
	cfg.Prober = topoProber{c, host}
	n, err := c.Start(fmt.Sprintf("h%d", host), cfg)
	if err == nil {
		c.hosts = append(c.hosts, host)
	}
	return n, err
}

// Remove takes live node i out of the overlay — a graceful Leave, or a
// silent failure (the node just stops) — and returns its host.
func (c *Cluster) Remove(i int, graceful bool) int {
	host, last := c.hosts[i], len(c.hosts)-1
	c.hosts[i] = c.hosts[last]
	c.hosts = c.hosts[:last]
	c.Driver.Remove(c.Live()[i], graceful)
	return host
}
