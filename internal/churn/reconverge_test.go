package churn

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/lint/leakcheck"
	"repro/internal/transport"
)

// ringOrderError names the first survivor whose successor in some layer
// is not the next live member of that ring in identifier order ("" when
// every ring of every layer is in true order).
func ringOrderError(live []*transport.Node, depth int) string {
	for layer := 1; layer <= depth; layer++ {
		rings := map[string][]*transport.Node{}
		for _, n := range live {
			name := ""
			if layer > 1 {
				name = n.RingNames()[layer-2]
			}
			rings[name] = append(rings[name], n)
		}
		for name, ring := range rings {
			sort.Slice(ring, func(i, j int) bool { return ring[i].ID().Less(ring[j].ID()) })
			for i, n := range ring {
				succ, _, err := n.Neighbors(layer)
				want := ring[(i+1)%len(ring)].Addr()
				if err != nil || len(succ) == 0 || succ[0].Addr != want {
					return fmt.Sprintf("%s layer %d ring %q: successors %v, want %s first", n.Addr(), layer, name, succ, want)
				}
			}
		}
	}
	return ""
}

// TestChurnReconverges: once joins, leaves and failures stop, a bounded
// number of maintenance rounds returns the survivors to the structure the
// oracle would build over them — every node's successor in every layer is
// the next live member of its ring — and every lookup to the true owner.
func TestChurnReconverges(t *testing.T) {
	leakcheck.Watchdog(t, 2*time.Minute)
	for _, depth := range []int{2, 3} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			cfg := baseConfig()
			cfg.Depth = depth
			cfg.Duration = 60
			cfg.JoinEvery, cfg.LeaveEvery, cfg.FailEvery = 4, 9, 7
			rng := rand.New(rand.NewSource(cfg.Seed))
			c, err := NewCluster(testNet(t, 60, 8), cfg.Depth, cfg.Landmarks, cfg.SuccessorListLen, rng)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			res, err := drive(c, cfg, rng)
			if err != nil {
				t.Fatal(err)
			}
			if res.Joins == 0 || res.Leaves == 0 || res.Fails == 0 {
				t.Fatalf("run exercised too little: %+v", *res)
			}
			// End on the worst case, whatever the schedule's last event
			// was: two silent failures and a join nobody has stabilized.
			c.Remove(rng.Intn(len(c.Live())), false)
			c.Remove(rng.Intn(len(c.Live())), false)
			if err := c.Join(59, c.Live()[0]); err != nil {
				t.Fatal(err)
			}
			const maxRounds = 12
			rounds, bad := 0, ringOrderError(c.Live(), depth)
			for ; bad != "" && rounds < maxRounds; rounds++ {
				c.Round(1)
				bad = ringOrderError(c.Live(), depth)
			}
			if bad != "" {
				t.Fatalf("rings not in true order %d rounds after churn stopped: %s", maxRounds, bad)
			}
			t.Logf("%d survivors in true ring order after %d rounds (%+v)", len(c.Live()), rounds, *res)
			for _, from := range c.Live() {
				key := id.Rand(rng)
				got, err := from.Lookup(c.ctx, key)
				if err != nil {
					t.Fatalf("lookup from %s: %v", from.Addr(), err)
				}
				if want := trueOwner(c.Live(), key).Addr(); got.Owner.Addr != want {
					t.Errorf("lookup from %s found %s, true owner %s", from.Addr(), got.Owner.Addr, want)
				}
			}
		})
	}
}
