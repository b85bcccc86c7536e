package churn

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/lint/leakcheck"
	"repro/internal/replica"
	"repro/internal/transport"
)

// kvOutcome is what a write leaves a key as: a value, or deleted.
type kvOutcome struct {
	value   string
	deleted bool
}

// kvModel is the harness's last-writer-wins model of one key: the outcome
// of the last acknowledged write, and the outcomes of writes that were not
// acknowledged — each may have landed on a minority and, stamped past what
// that minority held, may yet win the merge — so a read may show any of
// them. With no write acknowledged yet, absent is allowed too.
type kvModel struct {
	acked    kvOutcome
	hasAcked bool
	maybe    []kvOutcome
}

// allows reports whether a read that found value (found false: the key
// reads as absent) is one the model permits.
func (m *kvModel) allows(value string, found bool) bool {
	ok := func(o kvOutcome) bool { return o.deleted == !found && (!found || o.value == value) }
	if !m.hasAcked && !found {
		return true
	}
	return (m.hasAcked && ok(m.acked)) || slices.ContainsFunc(m.maybe, ok)
}

// TestChurnDurability is the KV's durability claim under churn (ROADMAP
// item 7): while fewer than Factor consecutive global successors fail
// between two anti-entropy rounds, no acknowledged write is lost. A
// settled 128-node depth-2 cluster (Factor 3, W = R = 2) runs seeded put,
// get and delete processes, each operation from a random live node, and
// every AntiEntropyEvery rounds two consecutive global successors fail
// silently. Once the cluster settles, every key read from a random
// survivor must show what the harness's LWW model of acknowledged writes
// says: no acknowledged write lost, no stale value, no deleted key
// resurrected.
func TestChurnDurability(t *testing.T) {
	leakcheck.Watchdog(t, 3*time.Minute)
	const (
		nodes, factor = 128, 3
		keys          = 256
		windows       = 12         // failure windows, one per anti-entropy period
		victims       = factor - 1 // consecutive global successors failed per window
		puts, deletes = 16, 4      // writes per round
		gets          = 16         // reads per round
	)
	for _, every := range []int{1, 4} {
		t.Run(fmt.Sprintf("antientropy-every=%d", every), func(t *testing.T) {
			c := settledCluster(t, nodes, 2, func(cfg *transport.Config) {
				cfg.Replication = replica.Options{Factor: factor, WriteQuorum: 2, ReadQuorum: 2}
				cfg.AntiEntropyEvery = every
			})
			rng := rand.New(rand.NewSource(int64(7 + every)))
			model := make([]kvModel, keys)
			keyAt := func(k int) string { return "durable-" + strconv.Itoa(k) }
			randomLive := func() *transport.Node { return c.Live()[rng.Intn(len(c.Live()))] }
			writes, unacked := 0, 0
			write := func(k int, o kvOutcome) {
				var err error
				if o.deleted {
					err = randomLive().Delete(c.Context(), keyAt(k))
				} else {
					err = randomLive().Put(c.Context(), keyAt(k), []byte(o.value))
				}
				writes++
				if err != nil {
					unacked++
					model[k].maybe = append(model[k].maybe, o)
					return
				}
				model[k].acked, model[k].hasAcked = o, true
			}
			// read judges one quorum read of key k against the model.
			read := func(k int) (stale bool) {
				v, err := randomLive().Get(c.Context(), keyAt(k))
				return !model[k].allows(string(v), err == nil)
			}
			for k := 0; k < keys/2; k++ {
				write(k, kvOutcome{value: "v0-" + strconv.Itoa(k)})
			}
			if err := c.Settle(); err != nil {
				t.Fatal(err)
			}

			staleDuring, reads, failed := 0, 0, 0
			for w := 0; w < windows; w++ {
				for r := 0; r < every; r++ {
					for i := 0; i < puts; i++ {
						k := rng.Intn(keys)
						write(k, kvOutcome{value: fmt.Sprintf("v%d.%d-%d", w, r, i)})
					}
					for i := 0; i < deletes; i++ {
						write(rng.Intn(keys), kvOutcome{deleted: true})
					}
					for i := 0; i < gets; i++ {
						reads++
						if read(rng.Intn(keys)) {
							staleDuring++
						}
					}
					c.Round(1)
				}
				// Fewer than Factor consecutive global successors fail: a
				// random live node and the victims-1 after it.
				ring := byID(c.Live())
				at := rng.Intn(len(ring))
				for v := 0; v < victims; v++ {
					victim := ring[(at+v)%len(ring)]
					c.Remove(slices.Index(c.Live(), victim), false)
					failed++
				}
			}
			if err := c.Settle(); err != nil {
				t.Fatal(err)
			}

			lost, stale, resurrected := 0, 0, 0
			for k := 0; k < keys; k++ {
				m := &model[k]
				if !m.hasAcked && len(m.maybe) == 0 {
					continue
				}
				v, err := randomLive().Get(c.Context(), keyAt(k))
				if m.allows(string(v), err == nil) {
					continue
				}
				switch {
				case err != nil:
					lost++
					t.Errorf("%s: read failed or found nothing (%v); acknowledged %+v", keyAt(k), err, m.acked)
				case m.hasAcked && m.acked.deleted:
					resurrected++
					t.Errorf("%s: read %q, acknowledged delete", keyAt(k), v)
				default:
					stale++
					t.Errorf("%s: read %q, acknowledged %+v", keyAt(k), v, m.acked)
				}
			}
			t.Logf("%d nodes failed in %d windows, %d survivors; %d writes (%d unacknowledged), %d reads during the run (%d outside the model); after settling: %d lost, %d stale, %d resurrected",
				failed, windows, len(c.Live()), writes, unacked, reads, staleDuring, lost, stale, resurrected)
		})
	}
}

// byID returns nodes in global-ring (identifier) order.
func byID(nodes []*transport.Node) []*transport.Node {
	ring := slices.Clone(nodes)
	slices.SortFunc(ring, func(a, b *transport.Node) int { return a.ID().Cmp(b.ID()) })
	return ring
}
