package replica

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/wire"
)

// refSnapshot is snapshot without the index: the store's own listing, each
// identifier hashed afresh, sorted into ring order.
func refSnapshot(e *Engine) []entry {
	out := []entry{}
	for _, it := range e.Items() {
		out = append(out, entry{key: it.Key, id: id.ID(testKeyID(it.Key)), expire: it.Expire, tombstone: it.Tombstone})
	}
	slices.SortFunc(out, func(a, b entry) int { return cmp.Or(a.id.Cmp(b.id), strings.Compare(a.key, b.key)) })
	return out
}

// refFolds is foldArcs without the memo: each of p's arcs folded afresh
// from the store's own listing, expiry judged at now.
func refFolds(e *Engine, now uint64, p *Placement) []uint64 {
	folds := make([]uint64, len(p.arcs))
	for _, it := range e.Items() {
		if Expired(it, now) {
			continue
		}
		kid := id.ID(testKeyID(it.Key))
		for i, a := range p.arcs {
			if id.InOpenClosed(kid, a.lo, a.hi) {
				folds[i] ^= ItemHash(it)
				break
			}
		}
	}
	return folds
}

// refFold is what Fold asks peer given p's arc folds: the tagged fold of
// the run naming peer, or 0 where that run holds nothing or there is none.
func refFold(p *Placement, folds []uint64, peer string) uint64 {
	i, j, ok := p.run(peer)
	if !ok {
		return 0
	}
	var x uint64
	for _, f := range folds[i : j+1] {
		x ^= f
	}
	if x == 0 {
		return 0
	}
	return x ^ arcTag(p.arcs[i].lo, p.arcs[j].hi)
}

// refSameFold is SameFold's answer given p's arc folds.
func refSameFold(p *Placement, folds []uint64, fold uint64) bool {
	for i := range folds {
		x := uint64(0)
		for j := i; j < len(folds); j++ {
			x ^= folds[j]
			if fold != 0 && arcTag(p.arcs[i].lo, p.arcs[j].hi)^x == fold {
				return true
			}
		}
	}
	return false
}

// memoChain is x's stretch at first-byte identifiers 0x08 … 0xf8, with
// the member at index moved to at (0: not moved) and s1 named s1.
func memoChain(s1 string, index int, at byte) []wire.Peer {
	names := []string{"p3", "p2", "p1", "x", s1, "s2"}
	chain := make([]wire.Peer, len(names))
	for i, name := range names {
		chain[i] = wire.Peer{Addr: name, ID: [20]byte{byte(0x08 + 0x30*i)}}
	}
	if at != 0 {
		chain[index].ID[0] = at
	}
	return chain
}

// TestStoreIndexFollowsStore: the store's index, its fold memo and the
// round's reused replica sets stay what they would be computed afresh,
// whatever the store and the ring went through. Seeded sequences of every
// mutator — writes, overwrites and stale deliveries (some expiring, some
// tombstones), owner installs, republishes, drops, purges — and of clock
// steps past an item's expiry with no purge, under a stretch that now and
// then moves, renames a member or cannot be vouched for, and a resolver
// whose answer holds for one step. After every step the round's placement
// (snapshot, sets, resolve counts), the Placement it records and the folds
// asked and answered over it are held to memo-less references.
func TestStoreIndexFollowsStore(t *testing.T) {
	ctx := context.Background()
	chains := [][]wire.Peer{
		memoChain("s1", 0, 0),
		memoChain("s1", 1, 0x50), // p2 moved: other arcs
		memoChain("t1", 0, 0),    // s1 replaced: the same arcs, other sets
		nil,                      // the stretch cannot be vouched for
	}
	peers := []string{"p3", "p2", "p1", "s1", "t1", "s2", "stranger"}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var now uint64 // the clock's stamp
		clock := new(wire.ManualClock)
		e := NewEngine()
		e.Clock = clock
		step, chain := 0, chains[0]
		co := &Coordinator{Self: "x", Opts: Options{Factor: 3}, Engine: e, KeyID: testKeyID, Metrics: NewMetrics(nil)}
		co.Neighbors = func(context.Context) ([]wire.Peer, int, bool) { return chain, 3, chain != nil }
		co.Resolve = func(context.Context, string) ([]string, error) {
			if step%5 == 4 {
				return nil, errors.New("unreachable")
			}
			return []string{"far", fmt.Sprintf("r%d", step)}, nil // an answer holds for its call only
		}
		var stale []uint64 // the folds asked a step ago
		for ; step < 150; step++ {
			key := fmt.Sprintf("k%d", rng.Intn(24))
			switch op := rng.Intn(12); {
			case op < 5:
				it := item(key, "v", uint64(1+rng.Intn(6)), fmt.Sprintf("w#%d", rng.Intn(3)))
				if rng.Intn(3) == 0 {
					it.Expire = now + uint64(1+rng.Intn(5))
				}
				it.Tombstone = rng.Intn(8) == 0
				if op == 4 {
					e.ApplyPast(it)
				} else {
					e.Apply(it)
				}
			case op == 5:
				e.Restamp(key, "x", now+uint64(1+rng.Intn(6)))
			case op == 6:
				e.Drop(key)
			case op == 7:
				e.PurgeExpired()
			case op < 10: // past some expiry, nothing purged
				d := 1 + rng.Intn(3)
				now += uint64(d)
				clock.Advance(time.Duration(d))
			}
			if rng.Intn(3) == 0 {
				chain = chains[rng.Intn(len(chains))]
			}

			local, walked := co.Metrics.LocalSets.Value(), co.Metrics.WalkSets.Value()
			place, snap, sets, _ := co.placeAll(ctx, true)
			co.agreedPeers(place)
			if want := refSnapshot(e); !reflect.DeepEqual(snap, want) {
				t.Fatalf("seed %d step %d: snapshot %v, reference %v", seed, step, snap, want)
			}
			refPlace := Placement{}
			if chain != nil && e.Len() > 0 {
				refPlace = NewPlacement(chain, 3, 3)
			}
			var wantLocal, wantWalked uint64
			for i, en := range snap {
				want, ok := refPlace.SetOf(en.id)
				if ok {
					wantLocal++
				} else if wantWalked++; step%5 != 4 {
					want = []string{"far", fmt.Sprintf("r%d", step)}
				}
				if !slices.Equal(sets[i], want) {
					t.Fatalf("seed %d step %d: %s placed on %v, reference %v", seed, step, en.key, sets[i], want)
				}
			}
			if got, got2 := co.Metrics.LocalSets.Value()-local, co.Metrics.WalkSets.Value()-walked; got != wantLocal || got2 != wantWalked {
				t.Fatalf("seed %d step %d: %d local and %d walked sets counted, reference %d and %d", seed, step, got, got2, wantLocal, wantWalked)
			}

			p := co.last.Load()
			if !p.equal(refPlace) {
				t.Fatalf("seed %d step %d: recorded Placement %v, reference %v", seed, step, p.arcs, refPlace.arcs)
			}
			folds := refFolds(e, now, p)
			asked := stale
			stale = nil
			for _, peer := range peers {
				want := refFold(p, folds, peer)
				if got := co.Fold(peer); got != want {
					t.Fatalf("seed %d step %d: fold asked of %s %#x, reference %#x", seed, step, peer, got, want)
				}
				stale = append(stale, want)
			}
			for _, f := range append(asked, stale...) {
				if got, want := co.SameFold(f), refSameFold(p, folds, f); got != want {
					t.Fatalf("seed %d step %d: fold %#x answered same=%v, reference %v", seed, step, f, got, want)
				}
			}
		}
	}
}

// TestFoldMemoConcurrent: folds asked and answered while writes land, as a
// liveness request is answered under the node's lock, and while rounds and
// sweeps read the index and the round's sets, are each the fold of a state
// the store passed through, and never of one older than a state already
// seen. A write sequence replayed on a reference engine names the states.
func TestFoldMemoConcurrent(t *testing.T) {
	ctx := context.Background()
	fc := newFakeCluster("n0", "n1", "n2")
	for i := 0; i < 40; i++ {
		for _, e := range fc.engines {
			e.Apply(item(fmt.Sprintf("k%d", i), "v", 1, "w#1"))
		}
	}
	co := fc.coordinator("n0", Options{Factor: 3})
	co.Metrics = NewMetrics(nil)
	ring := []wire.Peer{{Addr: "n0"}, {Addr: "n1", ID: [20]byte{1}}, {Addr: "n2", ID: [20]byte{2}}, {Addr: "n0"}, {Addr: "n1"}, {Addr: "n2"}}
	co.Neighbors = func(context.Context) ([]wire.Peer, int, bool) { return ring, 3, true }
	if _, _, _, err := co.AntiEntropyOnce(ctx); err != nil {
		t.Fatal(err)
	}
	p := co.last.Load()

	// Every write lands: a new key or a newer version, every third the
	// owner's install.
	write := func(e *Engine, i int) {
		it := item(fmt.Sprintf("k%d", i%60), "v2", uint64(2+i/60), fmt.Sprintf("w#%d", i))
		if i%3 == 0 {
			e.ApplyPast(it)
		} else if !e.Apply(it) {
			t.Errorf("write %d did not land", i)
		}
	}
	const writes = 120
	ref := NewEngine()
	for _, it := range fc.engines["n1"].Items() {
		ref.Apply(it)
	}
	states := map[uint64]int{}
	folds := make([]uint64, 0, writes+1)
	for i := 0; ; i++ {
		f := refFold(p, refFolds(ref, 0, p), "n1")
		states[f], folds = i, append(folds, f)
		if i == writes {
			break
		}
		write(ref, i)
	}
	if len(states) != writes+1 {
		t.Fatalf("%d distinct folds for %d states", len(states), writes+1)
	}

	var nodeMu sync.Mutex // a node's n.mu, held while it answers a liveness request
	done := make(chan struct{})
	var wg sync.WaitGroup
	for a := 0; a < 4; a++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			seen := 0 // the latest state observed
			observe := func(state int) {
				if state < seen {
					t.Errorf("state %d observed after state %d", state, seen)
				}
				seen = state
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				state, ok := states[co.Fold("n1")]
				if !ok {
					t.Error("a fold asked was the fold of no state the store passed through")
					return
				}
				observe(state)
				j := seen + rng.Intn(4)
				nodeMu.Lock()
				same := j < len(folds) && co.SameFold(folds[j])
				nodeMu.Unlock()
				if same {
					observe(j)
				}
			}
		}(int64(a))
	}
	for _, background := range []func(){
		func() { _, _, _, _ = co.AntiEntropyOnce(ctx) },
		func() { _, _ = co.SweepBytes(ctx) },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					background()
				}
			}
		}()
	}
	for i := 0; i < writes; i++ {
		write(fc.engines["n0"], i)
		runtime.Gosched() // let the askers see the state
	}
	close(done)
	wg.Wait()
	if !co.SameFold(folds[writes]) || co.SameFold(folds[0]) {
		t.Error("after the last write, the store's fold is not the last state's")
	}
}
