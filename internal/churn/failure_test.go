package churn

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/id"
	"repro/internal/transport"
)

// TestLookupsAfterSilentFailure: a seeded share of an installed cluster's
// hosts fails silently, and the same seeded lookups run before any
// maintenance round and after one, at depth 1 (Chord) and 2 (HIERAS) over
// the same hosts. Each lookup is judged against the key's true live owner,
// the first live identifier at or after the key: right, a dead owner, a
// wrong live owner, or an error. Before any round a lookup may still name
// a dead node or fail, but never a wrong live one; one round removes every
// dead owner, and at 10 % dead leaves every lookup right; HIERAS delivers
// at least 0.9 times what Chord does (paper §3.3: it inherits Chord's
// failure machinery in every layer).
func TestLookupsAfterSilentFailure(t *testing.T) {
	const nodes, lookups = 600, 2000
	type counts struct{ right, deadOwner, wrongLive, errs int }

	for _, frac := range []float64{0, 0.1, 0.3} {
		dead := rand.New(rand.NewSource(int64(frac*1000) + 1)).Perm(nodes)[:int(frac*nodes)]
		var alive []int
		for h := 0; h < nodes; h++ {
			if !slices.Contains(dead, h) {
				alive = append(alive, h)
			}
		}
		var got [3][2]counts // by depth; before any round, after one
		for depth := 1; depth <= 2; depth++ {
			c := testCluster(t, nodes, depth)
			for h := 0; h < nodes; h++ {
				if _, err := c.start(h); err != nil {
					t.Fatal(err)
				}
			}
			if err := transport.Install(c.Live()); err != nil {
				t.Fatal(err)
			}
			byHost := slices.Clone(c.Live())
			for _, h := range dead {
				c.Remove(slices.Index(c.Live(), byHost[h]), false)
			}
			ring := slices.Clone(c.Live())
			slices.SortFunc(ring, func(a, b *transport.Node) int { return a.ID().Cmp(b.ID()) })
			live := make(map[[20]byte]bool, len(ring))
			for _, n := range ring {
				live[[20]byte(n.ID())] = true
			}
			for round := 0; round < 2; round++ {
				if round == 1 {
					c.Round(1)
				}
				rng := rand.New(rand.NewSource(7))
				cnt := &got[depth][round]
				for i := 0; i < lookups; i++ {
					from, key := byHost[alive[rng.Intn(len(alive))]], id.Rand(rng)
					j := sort.Search(len(ring), func(j int) bool { return !ring[j].ID().Less(key) })
					owner := ring[j%len(ring)]
					r, err := from.Lookup(c.Context(), key)
					switch {
					case err != nil:
						cnt.errs++
					case r.Owner.ID == [20]byte(owner.ID()):
						cnt.right++
					case live[r.Owner.ID]:
						cnt.wrongLive++
					default:
						cnt.deadOwner++
					}
				}
				t.Logf("dead %.0f%% depth %d after %d rounds: right %d / dead owner %d / wrong live owner %d / error %d",
					frac*100, depth, round, cnt.right, cnt.deadOwner, cnt.wrongLive, cnt.errs)
				switch {
				case frac == 0 && cnt.right != lookups:
					t.Errorf("dead 0%% depth %d after %d rounds: %d of %d lookups right", depth, round, cnt.right, lookups)
				case round == 0 && cnt.wrongLive != 0:
					t.Errorf("dead %.0f%% depth %d before any round: %d lookups named a wrong live owner", frac*100, depth, cnt.wrongLive)
				case round == 1 && cnt.deadOwner != 0:
					t.Errorf("dead %.0f%% depth %d after one round: %d lookups named a dead owner", frac*100, depth, cnt.deadOwner)
				case round == 1 && frac == 0.1 && cnt.right != lookups:
					t.Errorf("dead 10%% depth %d after one round: %d of %d lookups right", depth, cnt.right, lookups)
				}
			}
			c.Close()
		}
		for round := 0; round < 2 && frac > 0; round++ {
			if h, ch := got[2][round].right, got[1][round].right; float64(h) < 0.9*float64(ch) {
				t.Errorf("dead %.0f%% after %d rounds: HIERAS delivered %d, Chord %d", frac*100, round, h, ch)
			}
		}
	}
}
