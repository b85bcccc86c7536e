package replica

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/wire"
)

// foldChain is a stretch of six members at identifiers 0x10 … 0x60: the
// view of the member at index self.
func foldChain(names ...string) []wire.Peer {
	chain := make([]wire.Peer, len(names))
	for i, name := range names {
		chain[i] = wire.Peer{Addr: name, ID: [20]byte{byte(0x10 * (i + 1))}}
	}
	return chain
}

// keyIn returns count keys whose test identifiers lie in (lo, hi].
func keyIn(prefix string, lo, hi id.ID, count int) []string {
	var keys []string
	for i := 0; len(keys) < count; i++ {
		key := fmt.Sprintf("%s-%d", prefix, i)
		if id.InOpenClosed(id.ID(testKeyID(key)), lo, hi) {
			keys = append(keys, key)
		}
	}
	return keys
}

// TestFoldIsTheDigestsXOR: a fold is the XOR of RangeDigest's buckets over
// the arc a node shares with a peer, bound to that arc by its tag. An
// expired item is left out as RangeDigest leaves it out, and a peer whose
// shared arc holds nothing here is not asked (fold 0).
func TestFoldIsTheDigestsXOR(t *testing.T) {
	clock := new(wire.ManualClock)
	clock.Advance(time.Hour)
	e := NewEngine()
	e.Clock = clock
	chain := foldChain("p3", "p2", "p1", "x", "s1", "s2")
	place := NewPlacement(chain, 3, 3) // arcs (p3,p2] (p2,p1] (p1,x]
	co := &Coordinator{Self: "x", Engine: e, KeyID: testKeyID}
	co.last.Store(&place)
	p2, p1, x := id.ID(chain[1].ID), id.ID(chain[2].ID), id.ID(chain[3].ID)
	for _, key := range keyIn("near", p1, x, 5) {
		e.Apply(item(key, "v", 1, "w#1"))
	}
	for _, key := range keyIn("mid", p2, p1, 4) {
		e.Apply(item(key, "v", 2, "w#2"))
	}
	dead := item(keyIn("gone", p2, p1, 1)[0], "v", 3, "w#3")
	dead.Expire = wire.Stamp(clock) // expired when judged: Apply refuses it, so plant it
	e.mu.Lock()
	e.items[dead.Key] = held{item: dead, hash: ItemHash(dead)}
	e.mu.Unlock()

	xor := func(lo, hi id.ID) uint64 {
		var x uint64
		for _, b := range e.RangeDigest(testKeyID, lo, hi) {
			x ^= b
		}
		return x
	}
	for _, tc := range []struct {
		peer   string
		lo, hi id.ID
	}{
		{"s1", p2, x},                  // arcs (p2,p1] and (p1,x]
		{"s2", p1, x},                  // (p1,x]
		{"p1", id.ID(chain[0].ID), p1}, // (p3,p2] and (p2,p1]
	} {
		if got, want := co.Fold(tc.peer), arcTag(tc.lo, tc.hi)^xor(tc.lo, tc.hi); got != want || got == 0 {
			t.Errorf("fold asked of %s = %#x, want the digest's XOR bound to (%x, %x]: %#x", tc.peer, got, tc.lo[:1], tc.hi[:1], want)
		}
	}
	if got := co.Fold("p2"); got != 0 {
		t.Errorf("p2 shares only (p3,p2], which holds nothing here; asked fold %#x, want 0", got)
	}
	if got := co.Fold("stranger"); got != 0 {
		t.Errorf("a node no set names was asked fold %#x", got)
	}
	if arcTag(x, x) != arcTag(p1, p1) || arcTag(p1, x) == arcTag(p2, x) {
		t.Error("arc tags: the whole ring must have one tag and different arcs different ones")
	}
}

// TestSameFoldAnswersOnlyTheSameArcAndItems: a node answers "same" to a
// fold of one of its runs of arcs holding what it holds there, and to
// nothing else — not after it lost an item of that arc, not to the fold
// of an arc it does not share — while a change outside the asked arc
// leaves the answer "same".
func TestSameFoldAnswersOnlyTheSameArcAndItems(t *testing.T) {
	names := []string{"p3", "p2", "p1", "x", "s1", "s2", "s3"}
	chain := foldChain(names...)
	xPlace := NewPlacement(chain[:6], 3, 3) // x's view
	sPlace := NewPlacement(chain[1:], 3, 3) // s1's view: (p2,p1] (p1,x] (x,s1]
	xs, ss := NewEngine(), NewEngine()
	asker := &Coordinator{Self: "x", Engine: xs, KeyID: testKeyID}
	answerer := &Coordinator{Self: "s1", Engine: ss, KeyID: testKeyID}
	asker.last.Store(&xPlace)
	answerer.last.Store(&sPlace)
	p2, x, s1 := id.ID(chain[1].ID), id.ID(chain[3].ID), id.ID(chain[4].ID)
	shared := keyIn("shared", p2, x, 6)
	for _, key := range shared {
		xs.Apply(item(key, "v", 1, "w#1"))
		ss.Apply(item(key, "v", 1, "w#1"))
	}
	if !answerer.SameFold(asker.Fold("s1")) {
		t.Fatal("equal stores, same arc: the fold was not answered same")
	}
	ss.Apply(item(keyIn("own", x, s1, 1)[0], "v", 1, "w#1")) // outside (p2, x]
	if !answerer.SameFold(asker.Fold("s1")) {
		t.Error("an item outside the asked arc changed the answer")
	}
	if answerer.SameFold(asker.Fold("p1")) {
		t.Error("the fold of (p3, p1], an arc s1 does not share, was answered same")
	}
	ss.Drop(shared[2])
	if answerer.SameFold(asker.Fold("s1")) {
		t.Error("an item lost inside the arc was answered same")
	}
	ss.Apply(item(shared[2], "v", 1, "w#1"))
	ss.Apply(item(shared[4], "v2", 2, "w#2"))
	if answerer.SameFold(asker.Fold("s1")) {
		t.Error("a newer version inside the arc was answered same")
	}
	if answerer.SameFold(0) || (&Coordinator{Engine: ss, KeyID: testKeyID}).SameFold(asker.Fold("s1")) {
		t.Error("no fold, or no placement to fold over, was answered same")
	}
}

// TestAntiEntropySkipsAgreedPeers: a round sends no digest to a peer
// Folded names, as long as the round's Placement is the one the folds were
// taken over; a changed stretch voids every answer, and so does, for its
// set's members, a key the round republishes. A round without evidence
// digests every peer.
func TestAntiEntropySkipsAgreedPeers(t *testing.T) {
	fc := newFakeCluster("n0", "n1", "n2")
	for i := 0; i < 20; i++ {
		for _, e := range fc.engines {
			e.Apply(item(fmt.Sprintf("k%d", i), "v", 1, "w#1"))
		}
	}
	co := fc.coordinator("n0", Options{Factor: 3})
	ring := []wire.Peer{{Addr: "n0"}, {Addr: "n1", ID: [20]byte{1}}, {Addr: "n2", ID: [20]byte{2}}, {Addr: "n0"}, {Addr: "n1"}, {Addr: "n2"}}
	moved := slices.Clone(ring)
	moved[1].ID[0] = 0x80 // n1 moved on the ring: another stretch
	chain := ring
	co.Neighbors = func(context.Context) ([]wire.Peer, int, bool) { return chain, 3, true }
	var evidence []string
	co.Folded = func() []string { taken := evidence; evidence = nil; return taken }
	digests := func() []string {
		t.Helper()
		fc.calls = fc.calls[:0]
		if _, _, _, err := co.AntiEntropyOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
		var to []string
		for _, c := range fc.calls {
			if addr, ok := strings.CutSuffix(c, ":digest"); ok {
				to = append(to, addr)
			}
		}
		return to
	}
	if got := digests(); !slices.Equal(got, []string{"n1", "n2"}) {
		t.Fatalf("first round digested %v, want both peers", got)
	}
	evidence = []string{"n2"}
	if got := digests(); !slices.Equal(got, []string{"n1"}) {
		t.Errorf("n2 agreed: the round digested %v, want n1 only", got)
	}
	if got := digests(); !slices.Equal(got, []string{"n1", "n2"}) {
		t.Errorf("evidence is one round's: the next round digested %v, want both", got)
	}
	evidence, chain = []string{"n1", "n2"}, moved
	if got := digests(); !slices.Equal(got, []string{"n1", "n2"}) {
		t.Errorf("the stretch changed: the round digested %v, want both", got)
	}
	evidence = []string{"n1", "n2"}
	if got := digests(); len(got) != 0 {
		t.Errorf("same stretch, both agreed: the round digested %v, want none", got)
	}
	chain = ring
	digests()

	// Republish: n0 owns "fresh" by the stretch and re-stamps it, inside the
	// last half of its TTL, as the round begins.
	clock := new(wire.ManualClock)
	clock.Advance(time.Hour)
	for _, e := range fc.engines {
		e.Clock = clock
	}
	co.TTL = time.Minute
	fresh := item("fresh", "v", 9, "w#9")
	fresh.Expire = wire.Stamp(clock) + uint64(10*time.Second)
	for _, e := range fc.engines {
		e.Apply(fresh)
	}
	if set, _ := NewPlacement(chain, 3, 3).SetOf(testKeyID("fresh")); set[0] != "n0" {
		t.Fatalf("%q is owned by %s, not the republishing n0", "fresh", set[0])
	}
	evidence = []string{"n1", "n2"}
	if got := digests(); !slices.Equal(got, []string{"n1", "n2"}) {
		t.Errorf("a key was republished: the round digested %v, want its set's other members", got)
	}
}
