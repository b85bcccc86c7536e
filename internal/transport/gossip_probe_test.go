package transport

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// gossipExchange is one route_gossip RPC as the WrapCaller seam saw it.
type gossipExchange struct {
	from, to       string
	pushed, pulled int  // events in the request, events in the reply
	same           bool // the reply's Found: equal summaries
}

// gossipTap records every node's route_gossip RPCs and the bytes of their
// frames, and loses the next lose of them that carry events — push-backs —
// before they are sent. It also loses every request of any type that drop,
// when set, accepts.
type gossipTap struct {
	mu     sync.Mutex
	seen   []gossipExchange
	frames int
	lose   int
	drop   func(from, to string, req wire.Request) bool
}

// frameHeaderBytes is what the framing adds to each request and reply:
// the payload length and the tag (see wire's frame layout).
const frameHeaderBytes = 12

// exchangeFrames is the bytes one exchange puts on the wire, both frames
// whole. It is computed from the exchange itself, not read off a node's
// connection counters, which the server side of an earlier exchange can
// still be moving.
func exchangeFrames(req *wire.Request, resp *wire.Response) int {
	q, err := wire.Binary{}.AppendRequest(nil, req)
	if err != nil {
		panic(err)
	}
	r, err := wire.Binary{}.AppendResponse(nil, resp)
	if err != nil {
		panic(err)
	}
	return len(q) + len(r) + 2*frameHeaderBytes
}

func (g *gossipTap) tweak(cfg *Config) {
	cfg.WrapCaller = func(self string, inner wire.Caller) wire.Caller {
		return wire.CallerFunc(func(ctx context.Context, addr string, req wire.Request) (wire.Response, error) {
			gossip := req.Type == wire.TRouteGossip
			g.mu.Lock()
			lost := g.drop != nil && g.drop(self, addr, req)
			if gossip && len(req.Events) > 0 && g.lose > 0 {
				lost = true
				g.lose--
			}
			g.mu.Unlock()
			if lost {
				return wire.Response{}, &wire.NetError{Addr: addr, Op: "call", Sent: false, Err: errors.New("gossip tap: lost")}
			}
			if !gossip {
				return inner.Call(ctx, addr, req)
			}
			resp, err := inner.Call(ctx, addr, req)
			g.mu.Lock()
			g.seen = append(g.seen, gossipExchange{self, addr, len(req.Events), len(resp.Events), resp.Found})
			if err == nil {
				g.frames += exchangeFrames(&req, &resp)
			}
			g.mu.Unlock()
			return resp, err
		})
	}
}

// take returns the exchanges recorded since the last take.
func (g *gossipTap) take() []gossipExchange {
	g.mu.Lock()
	defer g.mu.Unlock()
	seen := g.seen
	g.seen = nil
	return seen
}

// takeFrames returns the frame bytes of the exchanges recorded since the
// last takeFrames.
func (g *gossipTap) takeFrames() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	frames := g.frames
	g.frames = 0
	return frames
}

// gossipNode starts a depth-1 node on dn in the given route mode, with
// neither retries nor a breaker: one lost attempt is one failed call.
func gossipNode(t *testing.T, dn *DirectNet, addr, mode string, tweaks ...func(*Config)) *Node {
	t.Helper()
	cfg := Config{
		Depth: 1, RouteMode: mode,
		Retry:   wire.RetryPolicy{MaxAttempts: 1, BaseBackoff: time.Microsecond},
		Breaker: wire.BreakerPolicy{Threshold: -1},
	}
	for _, tweak := range tweaks {
		tweak(&cfg)
	}
	return startNode(t, dn, addr, cfg)
}

// gossipPair starts a converged two-node depth-1 overlay on dn: a runs the
// one-hop tier, b the tier mode names.
func gossipPair(t *testing.T, dn *DirectNet, mode string, tweaks ...func(*Config)) (a, b *Node) {
	t.Helper()
	a, b = gossipNode(t, dn, "a", RouteOneHop, tweaks...), gossipNode(t, dn, "b", mode, tweaks...)
	if err := a.CreateNetwork(); err != nil {
		t.Fatal(err)
	}
	if err := b.Join("a"); err != nil {
		t.Fatal(err)
	}
	stabilizeAll(t, []*Node{a, b}, 3)
	return a, b
}

// TestGossipProbe pins the exchange pushRoutes runs with one neighbor, case
// by case. Converged: one probe, answered "same", under 64 bytes of frames
// for request and reply together. News on the probed side only: the reply
// ships its table and that is all. News on the probing side: the reply
// ships the neighbor's table, which teaches nothing, and the push-back
// carries exactly the news. News on both: the same two RPCs. In every
// case the tables are equal after the one round, and a push-back that is
// lost costs one round, not convergence.
func TestGossipProbe(t *testing.T) {
	var tap gossipTap
	a, b := gossipPair(t, NewDirectNet(), RouteOneHop, tap.tweak)
	news := func(nd *Node, addr string) { nd.routeEvent(peerFor(addr), wire.RouteJoin) }
	converged := func(when string) {
		t.Helper()
		if ea, eb := a.routes.Events(), b.routes.Events(); !reflect.DeepEqual(ea, eb) {
			t.Fatalf("%s: tables differ after one round:\n a %v\n b %v", when, ea, eb)
		}
	}
	round := func() []gossipExchange {
		t.Helper()
		tap.take()
		if err := a.RouteGossipOnce(); err != nil {
			t.Fatal(err)
		}
		return tap.take()
	}
	size := len(a.routes.Events())

	tap.takeFrames()
	if got, want := round(), []gossipExchange{{"a", "b", 0, 0, true}}; !reflect.DeepEqual(got, want) {
		t.Errorf("converged pair: exchanges %+v, want %+v", got, want)
	}
	if frames := tap.takeFrames(); frames == 0 || frames > 64 {
		t.Errorf("converged pair: %v bytes of frames for probe and reply, want 1..64", frames)
	}
	if got, err := (wire.Binary{}).AppendRequest(nil, &wire.Request{Type: wire.TRouteGossip, Key: summaryKey(a.routes.Summary())}); err != nil || len(got) != routeProbeBytes {
		t.Errorf("a probe encodes to %d bytes (%v), routeProbeBytes says %d", len(got), err, routeProbeBytes)
	}

	news(b, "only-b")
	if got, want := round(), []gossipExchange{{"a", "b", 0, size + 1, false}}; !reflect.DeepEqual(got, want) {
		t.Errorf("news at the probed node: exchanges %+v, want %+v", got, want)
	}
	converged("news at the probed node")

	news(a, "only-a")
	if got, want := round(), []gossipExchange{{"a", "b", 0, size + 1, false}, {"a", "b", 1, 0, true}}; !reflect.DeepEqual(got, want) {
		t.Errorf("news at the probing node: exchanges %+v, want %+v", got, want)
	}
	converged("news at the probing node")

	news(a, "both-a")
	news(b, "both-b")
	if got, want := round(), []gossipExchange{{"a", "b", 0, size + 3, false}, {"a", "b", 1, 0, true}}; !reflect.DeepEqual(got, want) {
		t.Errorf("news at both: exchanges %+v, want %+v", got, want)
	}
	converged("news at both")

	news(a, "lost-a")
	tap.mu.Lock()
	tap.lose = 1
	tap.mu.Unlock()
	if got := round(); len(got) != 1 || got[0].same {
		t.Errorf("round with its push-back lost: exchanges %+v, want the probe alone, answered \"differs\"", got)
	}
	if reflect.DeepEqual(a.routes.Events(), b.routes.Events()) {
		t.Fatal("tables equal although the push-back was lost: the tap lost nothing")
	}
	if got := round(); len(got) != 2 || got[1].pushed != 1 || !got[1].same {
		t.Errorf("round after the lost push-back: exchanges %+v, want probe and a one-event push-back", got)
	}
	converged("the round after a lost push-back")
}

// TestGossipProbeMixedMode: a neighbor that does not run the one-hop tier
// has no table to reconcile and answers a probe "same", so a one-hop node
// beside it pays one probe a round — not a table it would drop unread,
// and not the push-back a bare acknowledgement would read as asking for.
func TestGossipProbeMixedMode(t *testing.T) {
	var tap gossipTap
	a, _ := gossipPair(t, NewDirectNet(), RouteClassic, tap.tweak)
	for round := 1; round <= 3; round++ {
		tap.take()
		tap.takeFrames()
		if err := a.RouteGossipOnce(); err != nil {
			t.Fatal(err)
		}
		if got, want := tap.take(), []gossipExchange{{"a", "b", 0, 0, true}}; !reflect.DeepEqual(got, want) {
			t.Errorf("round %d: exchanges with a classic neighbor %+v, want %+v", round, got, want)
		}
		if frames := tap.takeFrames(); frames == 0 || frames > 64 {
			t.Errorf("round %d: %v bytes of frames to a classic neighbor, want 1..64", round, frames)
		}
	}
}

// gossipRing starts a converged depth-1 overlay of the named nodes, all on
// the one-hop tier, and returns them in ring order.
func gossipRing(t *testing.T, names []string, tweaks ...func(*Config)) []*Node {
	t.Helper()
	dn := NewDirectNet()
	var nodes []*Node
	for i, name := range names {
		nd := gossipNode(t, dn, name, RouteOneHop, tweaks...)
		if i == 0 {
			if err := nd.CreateNetwork(); err != nil {
				t.Fatal(err)
			}
		} else if err := nd.Join(names[0]); err != nil {
			t.Fatalf("join %s: %v", name, err)
		}
		nodes = append(nodes, nd)
		stabilizeAll(t, nodes, 3)
	}
	return byIDOrder(nodes)
}

// TestSummaryRidesLiveness: the global ring's liveness requests carry the
// route summary, and the gossip round that follows probes only the
// neighbors they did not find equal. On five nodes a node's successor list
// ends at its predecessor, and its fanout is the four others. Probed:
// the neighbor with news, and nobody else; a neighbor whose liveness reply
// was lost; every neighbor when the table changed after stabilization, or
// when nothing stabilized before the gossip round. A node that runs no
// table answers a summary "same", so its neighbors never probe it.
func TestSummaryRidesLiveness(t *testing.T) {
	var tap gossipTap
	ring := gossipRing(t, []string{"a", "b", "c", "d", "e"}, tap.tweak)
	if bad := exactSuccessors(ring, 1, 4); bad != "" {
		t.Fatal(bad)
	}
	y, x := ring[0], ring[len(ring)-1] // x: y's predecessor and the tail of its list
	fanout := y.gossipFanout()
	if len(fanout) != 4 || fanout[3] != x.Addr() {
		t.Fatalf("%s's gossip fanout is %v, want the four others ending at %s", y.Addr(), fanout, x.Addr())
	}
	// probed runs round and returns the neighbors y probed in it.
	probed := func(round func() error) []string {
		t.Helper()
		tap.take()
		if err := round(); err != nil {
			t.Fatal(err)
		}
		var to []string
		for _, ex := range tap.take() {
			if ex.from == y.Addr() && ex.pushed == 0 {
				to = append(to, ex.to)
			}
		}
		return to
	}
	equal := func(when string, nodes ...*Node) {
		t.Helper()
		for _, nd := range nodes[1:] {
			if ea, eb := nodes[0].routes.Events(), nd.routes.Events(); !reflect.DeepEqual(ea, eb) {
				t.Errorf("%s: the tables of %s and %s differ", when, nodes[0].Addr(), nd.Addr())
			}
		}
	}
	equal("converged", ring...)
	if got := probed(y.StabilizeOnce); len(got) != 0 {
		t.Errorf("converged ring: %s probed %v, want nobody", y.Addr(), got)
	}

	// The tail's ping to x is lost; x is still the predecessor, and its
	// earlier "same" does not stand for the reply that did not come.
	pings := 0
	tap.mu.Lock()
	tap.drop = func(from, to string, req wire.Request) bool {
		if from != y.Addr() || to != x.Addr() || req.Type != wire.TPing {
			return false
		}
		pings++
		return pings == 2 // the first is the predecessor's ping
	}
	tap.mu.Unlock()
	if got, want := probed(y.StabilizeOnce), []string{x.Addr()}; !slices.Equal(got, want) {
		t.Errorf("liveness reply lost: %s probed %v, want %v", y.Addr(), got, want)
	}
	tap.mu.Lock()
	tap.drop = nil
	pinged := pings
	tap.mu.Unlock()
	if pinged != 2 {
		t.Fatalf("%s pinged %s %d times in the round, want 2", y.Addr(), x.Addr(), pinged)
	}
	stabilizeAll(t, ring, 1)
	if bad := exactSuccessors(ring, 1, 4); bad != "" {
		t.Fatal(bad)
	}

	// Stabilization took the answers; a gossip round after it has none.
	if err := y.StabilizeOnce(); err != nil {
		t.Fatal(err)
	}
	if got := probed(y.RouteGossipOnce); !slices.Equal(got, fanout) {
		t.Errorf("gossip round with no stabilization before it: %s probed %v, want %v", y.Addr(), got, fanout)
	}

	// News at y between its stabilization and its gossip round.
	if err := y.StabilizeLayer(1); err != nil {
		t.Fatal(err)
	}
	y.routeEvent(peerFor("news-y"), wire.RouteJoin)
	if got := probed(y.RouteGossipOnce); !slices.Equal(got, fanout) {
		t.Errorf("summary changed after stabilization: %s probed %v, want %v", y.Addr(), got, fanout)
	}
	equal("after news at y was pushed", ring...)

	// News at x: its liveness replies say "differs", and x alone is probed.
	x.routeEvent(peerFor("news-x"), wire.RouteJoin)
	if got, want := probed(y.StabilizeOnce), []string{x.Addr()}; !slices.Equal(got, want) {
		t.Errorf("news at %s: %s probed %v, want %v", x.Addr(), y.Addr(), got, want)
	}
	equal("after the probe of the node with news", x, y)

	// A classic neighbor: "same" to any summary, nothing to any bare ping.
	var pairTap gossipTap
	a, b := gossipPair(t, NewDirectNet(), RouteClassic, pairTap.tweak)
	ctx := context.Background()
	if resp, err := a.call(ctx, b.Addr(), wire.Request{Type: wire.TPing, Key: summaryKey(a.routes.Summary())}); err != nil || !resp.Found {
		t.Errorf("classic node's reply to a ping with a summary: Found %v, %v; want Found", resp.Found, err)
	}
	if resp, err := a.call(ctx, b.Addr(), wire.Request{Type: wire.TPing}); err != nil || resp.Found {
		t.Errorf("classic node's reply to a bare ping: Found %v, %v; want no Found", resp.Found, err)
	}
	pairTap.take()
	if err := a.StabilizeOnce(); err != nil {
		t.Fatal(err)
	}
	if got := pairTap.take(); len(got) != 0 {
		t.Errorf("round beside a classic neighbor: route_gossip %+v, want none", got)
	}
}
