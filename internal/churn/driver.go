package churn

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// Driver runs live transport.Nodes in-process, from one goroutine: it
// owns the wire.MemNet they listen on, the in-process call policy, the
// maintenance round and the run's root context. The caller invokes every
// node method itself, so a run is a pure function of its inputs. Cluster
// (topology hosts, the churn and overhead studies) and simcheck's
// invariant harness both drive their nodes through it.
type Driver struct {
	mem  *wire.MemNet
	dial wire.DialFunc // mem.Dial, behind which a test may count connections

	ctx    context.Context
	cancel context.CancelFunc

	live     []*transport.Node
	departed int64 // requests served by nodes that have since left or failed
}

// NewDriver returns a driver with an empty network.
func NewDriver() *Driver {
	d := &Driver{mem: wire.NewMemNet()}
	d.dial = d.mem.Dial
	d.ctx, d.cancel = context.WithCancel(context.Background()) //lint:allow ctxflow the run root: Close cancels it, and every operation a driven run issues derives from it
	return d
}

// Context is the run's root context, cancelled by Close.
func (d *Driver) Context() context.Context { return d.ctx }

// Start starts a node listening on addr with cfg, under the in-process
// call policy, and adds it to the live nodes. The node has not joined
// anything yet: the caller creates or joins the network through it.
func (d *Driver) Start(addr string, cfg transport.Config) (*transport.Node, error) {
	ln, err := d.mem.Listen(addr)
	if err != nil {
		return nil, err
	}
	cfg.CallTimeout = 2 * time.Second
	// MemNet refuses a dial to a dead peer at once, so two attempts with
	// near-zero backoff confirm a death in microseconds. The breaker's
	// cool-down is wall-clock time, which would leak into the result;
	// suspicion runs on the failure count alone.
	cfg.Retry = wire.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Microsecond, MaxBackoff: time.Millisecond}
	cfg.Breaker = wire.BreakerPolicy{Threshold: -1}
	cfg.Listener, cfg.Dial = ln, d.dial
	n, err := transport.Start("", cfg)
	if err != nil {
		_ = ln.Close()
		return nil, err
	}
	d.live = append(d.live, n)
	return n, nil
}

// Live returns the live nodes in the order rounds visit them: started
// order, except that Remove moves the last node into the removed one's
// place. The slice is the driver's own, valid until the next Start or
// Remove.
func (d *Driver) Live() []*transport.Node { return d.live }

// Remove takes live node n out of the overlay — a graceful Leave, or a
// silent failure (the node just stops).
func (d *Driver) Remove(n *transport.Node, graceful bool) {
	i, last := slices.Index(d.live, n), len(d.live)-1
	d.live[i] = d.live[last]
	d.live = d.live[:last]
	if graceful {
		_ = n.Leave() // best-effort handover; Leave always ends in Close
	} else {
		_ = n.Close()
	}
	d.departed += n.Handled()
}

// Round runs one maintenance period on every live node, as each node's
// own timer would: StabilizeOnce (every layer, ring tables, route gossip,
// anti-entropy), then a refresh of `fingers` finger slots per layer.
func (d *Driver) Round(fingers int) {
	d.round(func(n *transport.Node) error { return n.FixFingersOnce(fingers) })
}

func (d *Driver) round(fix func(*transport.Node) error) {
	for _, n := range d.live {
		_ = n.StabilizeOnce()
		_ = fix(n)
	}
}

// Settle drives maintenance to a fixpoint: rounds that rebuild every
// finger, until two consecutive rounds leave every live node's snapshot
// unchanged. Convergence is what makes a check of the settled state exact
// instead of probabilistic; the round cap turns a protocol that never
// converges into an error rather than a hang.
func (d *Driver) Settle() error {
	const maxRounds = 30
	var prev []transport.Snapshot
	for round := 0; round < maxRounds; round++ {
		d.round((*transport.Node).BuildAllFingers)
		cur := make([]transport.Snapshot, len(d.live))
		for i, n := range d.live {
			cur[i] = n.Snapshot()
		}
		if prev != nil && reflect.DeepEqual(prev, cur) {
			return nil
		}
		prev = cur
	}
	return fmt.Errorf("maintenance did not reach a fixpoint after %d rounds", maxRounds)
}

// Msgs returns the requests served so far by every node the driver ever
// started — the real wire-message count of the run.
func (d *Driver) Msgs() int64 {
	total := d.departed
	for _, n := range d.live {
		total += n.Handled()
	}
	return total
}

// Close cancels the run's context and stops every live node.
func (d *Driver) Close() {
	d.cancel()
	for _, n := range d.live {
		_ = n.Close()
	}
	d.live = nil
}
