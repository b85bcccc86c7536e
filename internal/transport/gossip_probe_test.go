package transport

import (
	"context"
	"errors"
	"reflect"
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

// gossipTap records every node's route_gossip RPCs, and loses the next
// lose of them that carry events — push-backs — before they are sent.
type gossipTap struct {
	mu   sync.Mutex
	seen []gossipExchange
	lose int
}

func (g *gossipTap) tweak(cfg *Config) {
	cfg.WrapCaller = func(self string, inner wire.Caller) wire.Caller {
		return wire.CallerFunc(func(ctx context.Context, addr string, req wire.Request) (wire.Response, error) {
			if req.Type != wire.TRouteGossip {
				return inner.Call(ctx, addr, req)
			}
			g.mu.Lock()
			lost := len(req.Events) > 0 && g.lose > 0
			if lost {
				g.lose--
			}
			g.mu.Unlock()
			if lost {
				return wire.Response{}, &wire.NetError{Addr: addr, Op: "call", Sent: false, Err: errors.New("gossip tap: lost")}
			}
			resp, err := inner.Call(ctx, addr, req)
			g.mu.Lock()
			g.seen = append(g.seen, gossipExchange{self, addr, len(req.Events), len(resp.Events), resp.Found})
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

// gossipPair starts a converged two-node depth-1 overlay: a runs the
// one-hop tier, b the tier mode names.
func gossipPair(t *testing.T, mode string, tweaks ...func(*Config)) (a, b *Node) {
	t.Helper()
	mem := wire.NewMemNet()
	start := func(addr, mode string) *Node {
		cfg := Config{
			Depth: 1, RouteMode: mode,
			Retry:   wire.RetryPolicy{MaxAttempts: 1, BaseBackoff: time.Microsecond},
			Breaker: wire.BreakerPolicy{Threshold: -1},
		}
		for _, tweak := range tweaks {
			tweak(&cfg)
		}
		return startMem(t, mem, addr, cfg)
	}
	a, b = start("a", RouteOneHop), start("b", mode)
	if err := a.CreateNetwork(); err != nil {
		t.Fatal(err)
	}
	if err := b.Join("a"); err != nil {
		t.Fatal(err)
	}
	stabilizeAll(t, []*Node{a, b}, 3)
	return a, b
}

// wireBytes is what nd has written to and read from its connections.
func wireBytes(t *testing.T, nd *Node) float64 {
	return counterValue(t, nd, "rpc_bytes_out_total") + counterValue(t, nd, "rpc_bytes_in_total")
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
	a, b := gossipPair(t, RouteOneHop, tap.tweak)
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

	before := wireBytes(t, a)
	if got, want := round(), []gossipExchange{{"a", "b", 0, 0, true}}; !reflect.DeepEqual(got, want) {
		t.Errorf("converged pair: exchanges %+v, want %+v", got, want)
	}
	if frames := wireBytes(t, a) - before; frames == 0 || frames > 64 {
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
	a, _ := gossipPair(t, RouteClassic, tap.tweak)
	for round := 1; round <= 3; round++ {
		tap.take()
		before := wireBytes(t, a)
		if err := a.RouteGossipOnce(); err != nil {
			t.Fatal(err)
		}
		if got, want := tap.take(), []gossipExchange{{"a", "b", 0, 0, true}}; !reflect.DeepEqual(got, want) {
			t.Errorf("round %d: exchanges with a classic neighbor %+v, want %+v", round, got, want)
		}
		if frames := wireBytes(t, a) - before; frames == 0 || frames > 64 {
			t.Errorf("round %d: %v bytes of frames to a classic neighbor, want 1..64", round, frames)
		}
	}
}
