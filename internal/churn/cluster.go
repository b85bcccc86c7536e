package churn

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Cluster is an in-process HIERAS deployment driven by one goroutine: real
// transport.Nodes in classic route mode, one per topology host, listening
// on a shared wire.MemNet. Host h listens as "h<h>", so node identifiers
// are the same on every run; landmarks are names only — a node's probe of
// landmark "lm<i>" is answered from the topology model, so no landmark
// process exists (and the global ring's merge scan through the landmarks
// costs a refused dial, not messages). The caller invokes every node
// method itself, so a run is a pure function of its inputs and Msgs
// counts the requests nodes really served.
type Cluster struct {
	net     *topology.Network
	rng     *rand.Rand // ping noise, drawn on the caller's goroutine
	mem     *wire.MemNet
	cfg     transport.Config // what every node starts with, less its prober and listener
	routers map[string]int   // landmark name -> underlay router

	ctx    context.Context
	cancel context.CancelFunc

	live     []*transport.Node
	hosts    []int // hosts[i] is live[i]'s topology host
	departed int64 // requests served by nodes that have since left or failed
}

// NewCluster prepares an empty cluster over net. depth and succListLen are
// handed to every node unchanged (0 = the transport defaults, 2 and 4);
// landmarks routers (default 4) are selected up front for depth > 1.
func NewCluster(net *topology.Network, depth, landmarks, succListLen int, rng *rand.Rand) (*Cluster, error) {
	c := &Cluster{net: net, rng: rng, mem: wire.NewMemNet(), routers: make(map[string]int)}
	c.cfg = transport.Config{
		Depth:       depth,
		SuccListLen: succListLen,
		RouteMode:   transport.RouteClassic,
		CallTimeout: 2 * time.Second,
		// MemNet refuses a dial to a dead peer at once, so two attempts
		// with near-zero backoff confirm a death in microseconds. The
		// breaker's cool-down is wall-clock time, which would leak into
		// the result; suspicion runs on the failure count alone.
		Retry:      wire.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Microsecond, MaxBackoff: time.Millisecond},
		Breaker:    wire.BreakerPolicy{Threshold: -1},
		WrapCaller: c.refuseLandmarks,
		Dial:       c.mem.Dial,
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
	c.ctx, c.cancel = context.WithCancel(context.Background()) //lint:allow ctxflow the cluster's run root: Close cancels it, and every lookup Run issues derives from it
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

var errLandmarkName = errors.New("churn: a landmark is a name here, not a node")

// refuseLandmarks fails a call addressed to a landmark name below the
// retry layer with an error it does not retry. Nobody listens there, so
// the call fails either way and no message count moves; but every node
// scans the landmarks for a closer global successor each round, and a
// refused dial retried after a backoff timer is four timer waits per node
// per round — half a run's wall time.
func (c *Cluster) refuseLandmarks(_ string, inner wire.Caller) wire.Caller {
	return wire.CallerFunc(func(ctx context.Context, addr string, req wire.Request) (wire.Response, error) {
		if _, ok := c.routers[addr]; ok {
			return wire.Response{}, errLandmarkName
		}
		return inner.Call(ctx, addr, req)
	})
}

// Live returns the live nodes. The slice is the cluster's own: valid until
// the next Join or Remove, which reorder it.
func (c *Cluster) Live() []*transport.Node { return c.live }

// Join starts a node for host and integrates it the way hieras-node does:
// the §3.3 join through boot, then a full finger build. A nil boot creates
// the network. A node whose join fails is closed and forgotten.
func (c *Cluster) Join(host int, boot *transport.Node) error {
	ln, err := c.mem.Listen(fmt.Sprintf("h%d", host))
	if err != nil {
		return err
	}
	cfg := c.cfg
	cfg.Prober, cfg.Listener = topoProber{c, host}, ln
	n, err := transport.Start("", cfg)
	if err != nil {
		_ = ln.Close()
		return err
	}
	if boot == nil {
		err = n.CreateNetwork()
	} else if err = n.Join(boot.Addr()); err == nil {
		err = n.BuildAllFingers()
	}
	if err != nil {
		_ = n.Close()
		c.departed += n.Handled()
		return err
	}
	c.live = append(c.live, n)
	c.hosts = append(c.hosts, host)
	return nil
}

// Remove takes live node i out of the overlay — a graceful Leave, or a
// silent failure (the node just stops) — and returns its host.
func (c *Cluster) Remove(i int, graceful bool) int {
	n, host := c.live[i], c.hosts[i]
	last := len(c.live) - 1
	c.live[i], c.hosts[i] = c.live[last], c.hosts[last]
	c.live, c.hosts = c.live[:last], c.hosts[:last]
	if graceful {
		_ = n.Leave() // best-effort handover; Leave always ends in Close
	} else {
		_ = n.Close()
	}
	c.departed += n.Handled()
	return host
}

// Round runs one maintenance period on every live node, as each node's
// own timer would: stabilize every layer and repair ring tables, then
// refresh `fingers` finger slots per layer.
func (c *Cluster) Round(fingers int) {
	for _, n := range c.live {
		_ = n.StabilizeOnce()
		_ = n.FixFingersOnce(fingers)
	}
}

// Msgs returns the requests served so far by every node the cluster ever
// started — the real wire-message count of the run.
func (c *Cluster) Msgs() int64 {
	total := c.departed
	for _, n := range c.live {
		total += n.Handled()
	}
	return total
}

// Close stops every live node.
func (c *Cluster) Close() {
	c.cancel()
	for _, n := range c.live {
		_ = n.Close()
	}
	c.live, c.hosts = nil, nil
}
