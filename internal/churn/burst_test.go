package churn

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/id"
	"repro/internal/transport"
)

// TestJoinBurstConverges: joins that arrive faster than maintenance runs
// still settle. 128 nodes join a classic cluster K at a time, one round
// after each burst; a burst leaves a node's successor chain several
// joiners long, which stabilization shortens by adopting the successor's
// predecessor as often as the chain allows in one round. The cluster must
// reach a snapshot fixpoint within 40 rounds and then answer 2,000
// lookups with the true owner.
func TestJoinBurstConverges(t *testing.T) {
	const nodes, lookups, maxRounds = 128, 2000, 40
	for depth := 1; depth <= 2; depth++ {
		for _, burst := range []int{16, 64} {
			t.Run(fmt.Sprintf("depth%d/k%d", depth, burst), func(t *testing.T) {
				c := testCluster(t, nodes, depth)
				for h := 0; h < nodes; h++ {
					var boot *transport.Node
					if h > 0 {
						boot = c.Live()[0]
					}
					if err := c.Join(h, boot); err != nil {
						t.Fatalf("join %d: %v", h, err)
					}
					if (h+1)%burst == 0 {
						c.Round(1)
					}
				}
				built := c.Msgs()
				rounds, err := c.settle(maxRounds)
				if err != nil {
					t.Error(err)
				} else {
					t.Logf("built with %d messages, settled in %d rounds", built, rounds)
				}
				rng := rand.New(rand.NewSource(int64(depth)))
				wrong := 0
				for i := 0; i < lookups; i++ {
					from, key := c.Live()[rng.Intn(nodes)], id.Rand(rng)
					if res, err := from.Lookup(c.Context(), key); err != nil || res.Owner.Addr != trueOwner(c.Live(), key).Addr() {
						wrong++
					}
				}
				if wrong > 0 {
					t.Errorf("%d of %d lookups did not find the true owner", wrong, lookups)
				}
			})
		}
	}
}
