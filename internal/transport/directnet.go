package transport

import (
	"context"
	"time"

	"repro/internal/wire"
)

// DirectNet is an in-process network without connections, for driving
// nodes deterministically: a request is a direct call of the addressed
// node's Dispatch, installed beneath the sender's Config.WrapCaller where
// its pool would sit (DESIGN §11), and an address with no node refuses
// like a dead one. Every node started on it listens on the net's MemNet,
// which names it and carries its landmark probes, and runs on the net's
// manual clock. Start and Remove are not safe for use concurrently with
// calls: a driven cluster is driven from one goroutine.
type DirectNet struct {
	// Dial is what nodes without a Config.Dial of their own dial the
	// MemNet with. A caller may wrap it before the first Start to observe
	// connections.
	Dial wire.DialFunc
	// Sessions, set before the first Start, sends every request over a
	// MemNet session instead of a direct call: the deployment's byte path,
	// which a direct run is checked against.
	Sessions bool

	mem   *wire.MemNet
	clock *wire.ManualClock
	nodes map[string]*Node // by address
}

// NewDirectNet returns an empty net whose clock reads one second: no
// route event carries the zero stamp.
func NewDirectNet() *DirectNet {
	d := &DirectNet{mem: wire.NewMemNet(), clock: new(wire.ManualClock), nodes: make(map[string]*Node)}
	d.clock.Advance(time.Second)
	d.Dial = d.mem.Dial
	return d
}

// Clock is the clock every node on the net runs on. It moves only when
// advanced.
func (d *DirectNet) Clock() *wire.ManualClock { return d.clock }

// Start starts a node listening on addr with cfg, on the net's clock. A
// node started on an address that already has one replaces it: a restart
// under the old address.
func (d *DirectNet) Start(addr string, cfg Config) (*Node, error) {
	ln, err := d.mem.Listen(addr)
	if err != nil {
		return nil, err
	}
	cfg.Listener, cfg.Clock = ln, d.clock
	if cfg.Dial == nil {
		cfg.Dial = d.Dial
	}
	if wrap := cfg.WrapCaller; !d.Sessions {
		cfg.WrapCaller = func(self string, _ wire.Caller) wire.Caller {
			if wrap == nil {
				return wire.CallerFunc(d.call)
			}
			return wrap(self, wire.CallerFunc(d.call))
		}
	}
	n, err := Start("", cfg)
	if err != nil {
		_ = ln.Close()
		return nil, err
	}
	d.nodes[addr] = n
	return n, nil
}

// Remove forgets n, which its caller has closed or is about to: its
// address refuses from now on.
func (d *DirectNet) Remove(n *Node) {
	if d.nodes[n.addr] == n {
		delete(d.nodes, n.addr)
	}
}

// call is the direct net; an address with no node refuses like a dead one.
func (d *DirectNet) call(ctx context.Context, addr string, req wire.Request) (wire.Response, error) {
	if n := d.nodes[addr]; n != nil {
		return n.Dispatch(ctx, req)
	}
	return wire.Response{}, &wire.NetError{Addr: addr, Op: "dial", Sent: false, Err: wire.ErrConnRefused}
}
