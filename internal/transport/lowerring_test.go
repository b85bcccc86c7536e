package transport

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/id"
	"repro/internal/wire"
)

// lowerRingDeath is an installed classic cluster one of whose lower-ring
// members has just failed silently.
type lowerRingDeath struct {
	dn   *DirectNet
	live []*Node
	dead *Node
	// pred and succ are the dead member's neighbours on its layer-2 ring.
	pred, succ *Node
	rng        *rand.Rand
}

// killLowerRingMember installs n classic nodes at the given depth and
// fails the middle non-landmark member of the largest layer-2 ring, in
// identifier order, without a word: it closes and its address refuses.
func killLowerRingMember(t *testing.T, n, depth int) *lowerRingDeath {
	t.Helper()
	dn, nodes := installNodes(t, n, depth, RouteClassic)
	install(t, nodes)
	rings := map[string][]*Node{}
	for _, nd := range nodes {
		name := nd.RingNames()[0]
		rings[name] = append(rings[name], nd)
	}
	var largest []*Node
	for _, name := range slices.Sorted(maps.Keys(rings)) {
		if len(rings[name]) > len(largest) {
			largest = rings[name]
		}
	}
	ring := byIDOrder(largest)
	var candidates []*Node
	for _, nd := range ring {
		if nd.Addr() != "n0" && nd.Addr() != "n1" {
			candidates = append(candidates, nd)
		}
	}
	dead := candidates[len(candidates)/2]
	at := slices.Index(ring, dead)
	k := &lowerRingDeath{
		dn:   dn,
		dead: dead,
		pred: ring[(at+len(ring)-1)%len(ring)],
		succ: ring[(at+1)%len(ring)],
		rng:  rand.New(rand.NewSource(int64(n*10 + depth))),
	}
	for _, nd := range nodes {
		if nd != dead {
			k.live = append(k.live, nd)
		}
	}
	_ = dead.Close()
	dn.Remove(dead)
	return k
}

// round runs one maintenance round, then 300 seeded lookups from live
// origins, each of which must name the live true owner without an error.
func (k *lowerRingDeath) round(t *testing.T, r int) {
	t.Helper()
	maintainRound(k.dn, k.live)
	for i := 0; i < 300; i++ {
		from, key := k.live[k.rng.Intn(len(k.live))], id.Rand(k.rng)
		res, err := from.Lookup(context.Background(), key)
		if err != nil {
			t.Fatalf("round %d: lookup %d from %s: %v", r, i, from.Addr(), err)
		}
		if want := trueOwner(k.live, key).Addr(); res.Owner.Addr != want {
			t.Fatalf("round %d: lookup %d from %s found %s, true owner %s", r, i, from.Addr(), res.Owner.Addr, want)
		}
	}
}

// lowerRingDeathCases runs check on the four installed clusters the
// lower-ring staleness tests use: N = 32 and 128 at depths 2 and 3.
func lowerRingDeathCases(t *testing.T, check func(t *testing.T, k *lowerRingDeath)) {
	for _, n := range []int{32, 128} {
		for depth := 2; depth <= 3; depth++ {
			t.Run(fmt.Sprintf("n%d/depth%d", n, depth), func(t *testing.T) {
				t.Parallel()
				check(t, killLowerRingMember(t, n, depth))
			})
		}
	}
}

// TestLowerRingTailForgetsDeadMember bounds how long a silently failed
// lower-ring member stays in the successor lists of its rings: within
// SuccListLen rounds no layer-2 or deeper list names it, and every lookup
// in every round meanwhile names the live true owner.
func TestLowerRingTailForgetsDeadMember(t *testing.T) {
	lowerRingDeathCases(t, func(t *testing.T, k *lowerRingDeath) {
		rounds := k.dead.cfg.SuccListLen
		naming := make([]int, rounds) // lists naming the dead member after each round
		for r := 1; r <= rounds; r++ {
			k.round(t, r)
			for _, nd := range k.live {
				for _, ls := range nd.Snapshot().Layers[1:] {
					if slices.ContainsFunc(ls.Succ, func(p wire.Peer) bool { return p.Addr == k.dead.Addr() }) {
						naming[r-1]++
					}
				}
			}
		}
		t.Logf("lower-ring lists naming %s after rounds 1-%d: %v", k.dead.Addr(), rounds, naming)
		if got := naming[rounds-1]; got != 0 {
			t.Errorf("%d lower-ring successor lists still name %s after %d rounds", got, k.dead.Addr(), rounds)
		}
	})
}

// TestLowerRingPredecessorDeathClears bounds how long a silently failed
// lower-ring member stays its successor's predecessor. After round 1 the
// layer-2 successor holds no predecessor, or already the dead member's
// own predecessor when that one's notify came after the successor's
// check in the round; from round 2 it holds the dead member's
// predecessor. Every lookup meanwhile names the live true owner.
func TestLowerRingPredecessorDeathClears(t *testing.T) {
	lowerRingDeathCases(t, func(t *testing.T, k *lowerRingDeath) {
		rounds := k.dead.cfg.SuccListLen + 1
		var held []string // the successor's layer-2 predecessor after each round
		for r := 1; r <= rounds; r++ {
			k.round(t, r)
			switch pred := k.succ.Snapshot().Layers[1].Pred.Addr; pred {
			case "":
				held = append(held, "none")
			case k.pred.Addr():
				held = append(held, "ok")
			default:
				held = append(held, pred)
			}
		}
		t.Logf("%s's layer-2 predecessor after rounds 1-%d: %v", k.succ.Addr(), rounds, held)
		if held[0] != "none" && held[0] != "ok" {
			t.Errorf("after round 1 %s's layer-2 predecessor is %s, want none or %s (the dead %s's predecessor)",
				k.succ.Addr(), held[0], k.pred.Addr(), k.dead.Addr())
		}
		for r, pred := range held[1:] {
			if pred != "ok" {
				t.Errorf("after round %d %s's layer-2 predecessor is %s, want %s (the dead %s's predecessor)",
					r+2, k.succ.Addr(), pred, k.pred.Addr(), k.dead.Addr())
			}
		}
	})
}
