package routes

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/wire"
)

func ev(layer int, ring, addr string, kind uint8, stamp uint64) wire.RouteEvent {
	var id [20]byte
	copy(id[:], addr)
	return wire.RouteEvent{Layer: layer, Ring: ring, Peer: wire.Peer{Addr: addr, ID: id}, Kind: kind, Stamp: stamp}
}

// TestMergeRule pins the gossip merge order one case at a time: newer
// stamps win, equal stamps break toward the departure, and superseded
// or replayed events never move the table.
func TestMergeRule(t *testing.T) {
	cases := []struct {
		name    string
		have    wire.RouteEvent
		apply   wire.RouteEvent
		applied bool
		want    uint8 // surviving kind
	}{
		{"newer join beats older leave", ev(1, "g", "a", wire.RouteLeave, 5), ev(1, "g", "a", wire.RouteJoin, 6), true, wire.RouteJoin},
		{"newer leave beats older join", ev(1, "g", "a", wire.RouteJoin, 5), ev(1, "g", "a", wire.RouteLeave, 6), true, wire.RouteLeave},
		{"newer evict beats older join", ev(1, "g", "a", wire.RouteJoin, 5), ev(1, "g", "a", wire.RouteEvict, 6), true, wire.RouteEvict},
		{"older event loses", ev(1, "g", "a", wire.RouteJoin, 9), ev(1, "g", "a", wire.RouteEvict, 3), false, wire.RouteJoin},
		{"equal stamp: evict tombstone beats join", ev(1, "g", "a", wire.RouteJoin, 7), ev(1, "g", "a", wire.RouteEvict, 7), true, wire.RouteEvict},
		{"equal stamp: leave beats join", ev(1, "g", "a", wire.RouteJoin, 7), ev(1, "g", "a", wire.RouteLeave, 7), true, wire.RouteLeave},
		{"equal stamp: join does not beat evict", ev(1, "g", "a", wire.RouteEvict, 7), ev(1, "g", "a", wire.RouteJoin, 7), false, wire.RouteEvict},
		{"exact replay is a no-op", ev(1, "g", "a", wire.RouteJoin, 7), ev(1, "g", "a", wire.RouteJoin, 7), false, wire.RouteJoin},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tbl := New()
			if !tbl.Apply(tc.have) {
				t.Fatal("seeding an empty table must apply")
			}
			if got := tbl.Apply(tc.apply); got != tc.applied {
				t.Errorf("Apply advanced=%v, want %v", got, tc.applied)
			}
			cur, ok := tbl.Latest(1, "g", "a")
			if !ok {
				t.Fatal("subject vanished")
			}
			if cur.Kind != tc.want {
				t.Errorf("surviving kind = %d, want %d", cur.Kind, tc.want)
			}
		})
	}
}

// TestMergeOrderIndependence: the merge is a join-semilattice, so any
// delivery order, duplication or batch split converges to the same
// event set — the property that lets converged tables compare equal at
// a simcheck fixpoint.
func TestMergeOrderIndependence(t *testing.T) {
	var all []wire.RouteEvent
	for i := 0; i < 6; i++ {
		addr := fmt.Sprintf("n%d", i%3)
		all = append(all,
			ev(1, "g", addr, wire.RouteJoin, uint64(i+1)),
			ev(2, "ring", addr, wire.RouteEvict, uint64(10-i)),
			ev(1, "g", addr, wire.RouteLeave, uint64(i+1)), // ties the join at i+1
		)
	}
	base := New()
	base.ApplyAll(all)
	want := base.Events()

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		shuffled := append([]wire.RouteEvent(nil), all...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		// Duplicate a random prefix to exercise replay idempotence.
		shuffled = append(shuffled, shuffled[:rng.Intn(len(shuffled))]...)
		tbl := New()
		tbl.ApplyAll(shuffled)
		if got := tbl.Events(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: order-dependent merge:\n got  %v\n want %v", trial, got, want)
		}
	}
}

// TestEvictionTombstone: an evicted peer drops out of the membership
// view, stays out under replayed joins, and only a strictly fresher
// re-announce (NextStamp) brings it back.
func TestEvictionTombstone(t *testing.T) {
	tbl := New()
	tbl.Apply(ev(1, "g", "a", wire.RouteJoin, 3))
	tbl.Apply(ev(1, "g", "b", wire.RouteJoin, 4))
	tbl.Apply(ev(1, "g", "a", wire.RouteEvict, 8))

	members := tbl.Members(1, "g")
	if len(members) != 1 || members[0].Addr != "b" {
		t.Fatalf("members after eviction = %v, want just b", members)
	}
	// A replayed (stale) join cannot resurrect the evicted peer.
	if tbl.Apply(ev(1, "g", "a", wire.RouteJoin, 3)) {
		t.Error("stale join resurrected an evicted peer")
	}
	// NextStamp outranks the tombstone, so a genuine rejoin lands.
	stamp := tbl.NextStamp(1, "g", "a", 2)
	if stamp != 9 {
		t.Errorf("NextStamp = %d, want tombstone+1 = 9", stamp)
	}
	if !tbl.Apply(ev(1, "g", "a", wire.RouteJoin, stamp)) {
		t.Error("rejoin with NextStamp did not apply")
	}
	if got := len(tbl.Members(1, "g")); got != 2 {
		t.Errorf("members after rejoin = %d, want 2", got)
	}
}

// TestDiff: the pull half of the exchange returns exactly the entries
// the pushed set is missing or holds stale — and nothing else, so a
// converged pair exchanges empty diffs.
func TestDiff(t *testing.T) {
	tbl := New()
	tbl.Apply(ev(1, "g", "a", wire.RouteJoin, 5))
	tbl.Apply(ev(1, "g", "b", wire.RouteLeave, 9))
	tbl.Apply(ev(2, "r", "c", wire.RouteJoin, 2))

	push := []wire.RouteEvent{
		ev(1, "g", "a", wire.RouteJoin, 5),  // identical: not in diff
		ev(1, "g", "b", wire.RouteJoin, 4),  // stale: our leave@9 is in diff
		ev(1, "g", "d", wire.RouteJoin, 11), // unknown to us: their novelty, not ours
	}
	got := tbl.Diff(push)
	want := []wire.RouteEvent{ev(1, "g", "b", wire.RouteLeave, 9), ev(2, "r", "c", wire.RouteJoin, 2)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Diff = %v, want %v", got, want)
	}
	// After merging the push, a repeat diff shrinks to what the pusher
	// still lacks; once both sides merge, diffs are empty both ways.
	tbl.ApplyAll(push)
	other := New()
	other.ApplyAll(push)
	other.ApplyAll(got)
	if d := tbl.Diff(other.Events()); len(d) != 0 {
		t.Fatalf("converged tables still diff: %v", d)
	}
	if d := other.Diff(tbl.Events()); len(d) != 0 {
		t.Fatalf("converged tables still diff (reverse): %v", d)
	}
}

// TestOwner: successor-in-ring-order semantics with wraparound, and no
// answer at all when the table has no live view of the ring.
func TestOwner(t *testing.T) {
	tbl := New()
	mk := func(addr string, hi byte) wire.RouteEvent {
		e := ev(1, "g", addr, wire.RouteJoin, 1)
		e.Peer.ID = [20]byte{hi}
		return e
	}
	tbl.Apply(mk("n10", 0x10))
	tbl.Apply(mk("n40", 0x40))
	tbl.Apply(mk("n90", 0x90))

	cases := []struct {
		key  byte
		want string
	}{
		{0x05, "n10"}, // before the first member
		{0x10, "n10"}, // exact hit
		{0x11, "n40"}, // between members
		{0x91, "n10"}, // wraps past the largest
	}
	for _, tc := range cases {
		got, ok := tbl.Owner(1, "g", [20]byte{tc.key})
		if !ok || got.Addr != tc.want {
			t.Errorf("Owner(key=%#x) = %q ok=%v, want %q", tc.key, got.Addr, ok, tc.want)
		}
	}
	if _, ok := tbl.Owner(1, "empty-ring", [20]byte{1}); ok {
		t.Error("Owner answered for a ring with no known members")
	}
	// Evict every member: the ring goes dark rather than guessing.
	for _, addr := range []string{"n10", "n40", "n90"} {
		tbl.Apply(ev(1, "g", addr, wire.RouteEvict, 99))
	}
	if _, ok := tbl.Owner(1, "g", [20]byte{0x05}); ok {
		t.Error("Owner answered from a fully tombstoned ring")
	}
}

// scanMembers and scanOwner are the reference Members and Owner are
// checked against: the scan-and-sort over every event that the sorted
// index replaced.
func scanMembers(tbl *Table, layer int, ring string) []wire.Peer {
	var out []wire.Peer
	for _, e := range tbl.Events() {
		if e.Layer == layer && e.Ring == ring && e.Kind == wire.RouteJoin {
			out = append(out, e.Peer)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if c := bytes.Compare(out[i].ID[:], out[j].ID[:]); c != 0 {
			return c < 0
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

func scanOwner(tbl *Table, layer int, ring string, key [20]byte) (wire.Peer, bool) {
	members := scanMembers(tbl, layer, ring)
	for _, p := range members {
		if bytes.Compare(p.ID[:], key[:]) >= 0 {
			return p, true
		}
	}
	if len(members) == 0 {
		return wire.Peer{}, false
	}
	return members[0], true
}

// TestOwnerIndexMatchesScan drives random event sequences — joins,
// leaves, evictions, re-joins with older and with newer stamps,
// equal-stamp kind ties, two rings, two peers sharing an identifier —
// and after every event compares the indexed Owner and Members with the
// reference, probing the keys where they could part: each member's
// identifier, its neighbours, and both ends of the identifier space
// (the wrap-around).
func TestOwnerIndexMatchesScan(t *testing.T) {
	rings := []struct {
		layer int
		ring  string
	}{{1, ""}, {2, "02"}}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl := New()
		for step := 0; step < 200; step++ {
			r := rings[rng.Intn(len(rings))]
			peer := rng.Intn(12)
			e := wire.RouteEvent{
				Layer: r.layer, Ring: r.ring,
				Peer:  wire.Peer{Addr: fmt.Sprintf("n%d", peer), ID: [20]byte{byte(peer / 2 * 40), byte(peer / 2)}},
				Kind:  uint8(rng.Intn(3)),
				Stamp: uint64(rng.Intn(8)), // few stamps: older, newer and tied events all occur
			}
			if rng.Intn(4) == 0 {
				tbl.ApplyAll([]wire.RouteEvent{e, e})
			} else {
				tbl.Apply(e)
			}
			for _, r := range rings {
				want := scanMembers(tbl, r.layer, r.ring)
				got := tbl.Members(r.layer, r.ring)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d ring %q: Members = %v, reference %v", seed, step, r.ring, got, want)
				}
				keys := [][20]byte{{}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}}
				for _, p := range want {
					below, above := p.ID, p.ID
					below[1]--
					above[19]++
					keys = append(keys, p.ID, below, above)
				}
				for _, key := range keys {
					wantOwner, wantOK := scanOwner(tbl, r.layer, r.ring, key)
					gotOwner, gotOK := tbl.Owner(r.layer, r.ring, key)
					if gotOwner != wantOwner || gotOK != wantOK {
						t.Fatalf("seed %d step %d ring %q key %x: Owner = %v %v, reference %v %v",
							seed, step, r.ring, key[:2], gotOwner, gotOK, wantOwner, wantOK)
					}
				}
			}
			// Members hands out a copy: scribbling on it must not reach the index.
			if got := tbl.Members(1, ""); len(got) > 0 {
				got[0] = wire.Peer{Addr: "scribble"}
			}
		}
	}
}

// foldSummary is Summary computed from scratch: the reference the
// incrementally maintained word is held to.
func foldSummary(evs []wire.RouteEvent) uint64 {
	var sum uint64
	for i := range evs {
		sum ^= eventHash(&evs[i])
	}
	return sum
}

// checkSummaries is the summary's contract on a pair of tables: each
// table's summary is the fold of its event set, and the two summaries are
// equal exactly when the event sets are.
func checkSummaries(t *testing.T, a, b *Table) {
	t.Helper()
	ea, eb := a.Events(), b.Events()
	if got, want := a.Summary(), foldSummary(ea); got != want {
		t.Fatalf("incremental summary %#x, from-scratch fold %#x over %v", got, want, ea)
	}
	if got, want := b.Summary(), foldSummary(eb); got != want {
		t.Fatalf("incremental summary %#x, from-scratch fold %#x over %v", got, want, eb)
	}
	if same := reflect.DeepEqual(ea, eb); (a.Summary() == b.Summary()) != same {
		t.Fatalf("summaries %#x and %#x, event sets equal: %v\n a %v\n b %v", a.Summary(), b.Summary(), same, ea, eb)
	}
}

// streamEvent decodes three bytes into one event of a universe small
// enough — 2 layers, 2 rings, 4 peers, 3 kinds, 8 stamps — that streams
// are full of replays, superseded deliveries and equal-stamp ties. One
// peer in eight carries a second identifier under the same address, the
// one difference the merge order does not settle.
func streamEvent(subject, kind, stamp byte) wire.RouteEvent {
	e := ev(1+int(subject&1), []string{"", "r"}[subject>>1&1], fmt.Sprintf("n%d", subject>>2&3), kind%3, uint64(stamp%8))
	if subject>>4&7 == 0 {
		e.Peer.ID[19] = 1
	}
	return e
}

// TestSummaryMatchesEventSet drives two tables with seeded random event
// streams — joins, leaves, evictions, replays, superseded and reordered
// deliveries — and holds them to checkSummaries after every delivery.
// Half the streams end with each table receiving what it missed, in
// another order: converged tables must then agree in one word.
func TestSummaryMatchesEventSet(t *testing.T) {
	for seed := int64(0); seed < 1200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b := New(), New()
		var toA, toB []wire.RouteEvent
		for i, n := 0, 1+rng.Intn(24); i < n; i++ {
			e := streamEvent(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
			switch rng.Intn(3) {
			case 0:
				a.Apply(e)
				toB = append(toB, e)
			case 1:
				b.Apply(e)
				toA = append(toA, e)
			default:
				a.Apply(e)
				b.Apply(e)
			}
			checkSummaries(t, a, b)
		}
		if seed%2 == 0 {
			continue
		}
		rng.Shuffle(len(toA), func(i, j int) { toA[i], toA[j] = toA[j], toA[i] })
		a.ApplyAll(toA)
		b.ApplyAll(toB)
		checkSummaries(t, a, b)
	}
}

// FuzzSummary holds arbitrary delivery schedules to the same oracle: four
// bytes a delivery — which table (or both), then the event.
func FuzzSummary(f *testing.F) {
	f.Add([]byte{0, 1, 0, 3, 1, 1, 0, 3})                  // the same event to each table
	f.Add([]byte{0, 1, 0, 3, 1, 1, 2, 3, 2, 1, 1, 3})      // a tie, then a departure at the same stamp
	f.Add([]byte{2, 0, 0, 1, 0, 0, 0, 1, 1, 16, 0, 1})     // one address under two identifiers
	f.Add([]byte{0, 5, 0, 7, 0, 5, 1, 2, 1, 5, 1, 2, 255}) // a superseded delivery and a trailing fragment
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := New(), New()
		for ; len(data) >= 4; data = data[4:] {
			e := streamEvent(data[1], data[2], data[3])
			if data[0]%3 != 1 {
				a.Apply(e)
			}
			if data[0]%3 != 0 {
				b.Apply(e)
			}
			checkSummaries(t, a, b)
		}
	})
}
