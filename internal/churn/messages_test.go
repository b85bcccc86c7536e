package churn

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/id"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestLookupMessagesAreHops: on a settled cluster a classic lookup sends
// one find_closest per hop it reports. The climb out of a lower ring
// costs no message — the node that ended the ring walk answers for the
// next layer up in the same reply — and the one hop that is no message is
// the final forward from the owner's global predecessor to the owner.
// Messages are counted at the origin's WrapCaller seam, so a step the
// origin answers itself is not one.
func TestLookupMessagesAreHops(t *testing.T) {
	nodes, lookups := 128, 400
	if testing.Short() {
		nodes, lookups = 32, 100
	}
	for depth := 1; depth <= 3; depth++ {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			var (
				mu      sync.Mutex
				origin  string
				targets []string // the origin's find_closest attempts, this lookup
			)
			wrap := func(cfg *transport.Config) {
				cfg.WrapCaller = func(self string, inner wire.Caller) wire.Caller {
					return wire.CallerFunc(func(ctx context.Context, addr string, req wire.Request) (wire.Response, error) {
						if req.Type == wire.TFindClosest {
							mu.Lock()
							if self == origin {
								targets = append(targets, addr)
							}
							mu.Unlock()
						}
						return inner.Call(ctx, addr, req)
					})
				}
			}
			c := settledCluster(t, nodes, depth, wrap)
			rng := rand.New(rand.NewSource(int64(depth)))
			var msgs, hops int
			for i := 0; i < lookups; i++ {
				from, key := c.Live()[rng.Intn(nodes)], id.Rand(rng)
				mu.Lock()
				origin, targets = from.Addr(), targets[:0]
				mu.Unlock()
				res, err := from.Lookup(c.Context(), key)
				if err != nil {
					t.Fatalf("lookup %d from %s: %v", i, from.Addr(), err)
				}
				owner := trueOwner(c.Live(), key).Addr()
				if res.Owner.Addr != owner {
					t.Fatalf("lookup %d from %s found %s, true owner %s", i, from.Addr(), res.Owner.Addr, owner)
				}
				mu.Lock()
				sent := len(targets)
				// The owner answers Owner when asked; a lookup that never
				// asked it ended with the forward to it.
				finalForward := owner != from.Addr() && !slices.Contains(targets, owner)
				mu.Unlock()
				want := res.Hops
				if finalForward {
					want--
				}
				if sent != want {
					t.Errorf("lookup %d from %s: %d find_closest sent for %d hops %v (final forward %v), want %d",
						i, from.Addr(), sent, res.Hops, res.LayerHops[:depth], finalForward, want)
				}
				msgs += sent
				hops += res.Hops
			}
			t.Logf("%d nodes, depth %d: %.2f find_closest messages and %.2f hops per lookup",
				nodes, depth, float64(msgs)/float64(lookups), float64(hops)/float64(lookups))
		})
	}
}
