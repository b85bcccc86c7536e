package replica

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/wire"
)

// referenceRange is RangeDigest and RangeItems without the memo: every
// identifier hashed afresh, from the store's own sorted listing.
func referenceRange(e *Engine, now uint64, lo, hi [20]byte, buckets []uint32) ([]uint64, []wire.StoreItem) {
	digest := make([]uint64, DigestBuckets)
	var items []wire.StoreItem
	for _, it := range e.Items() {
		kid := testKeyID(it.Key)
		if Expired(it, now) || !id.InOpenClosed(id.ID(kid), id.ID(lo), id.ID(hi)) {
			continue
		}
		digest[BucketOf(kid)] ^= ItemHash(it)
		if slices.Contains(buckets, uint32(BucketOf(kid))) {
			items = append(items, it)
		}
	}
	return digest, items
}

// TestKeyIDMemoFollowsStore: the identifier kept beside an item is the
// key's, whatever the store went through — seeded sequences of writes,
// overwrites, stale deliveries, drops, expiry purges and re-writes of
// dropped keys, with RangeDigest and RangeItems over a random arc held to
// the memo-less reference after every step.
func TestKeyIDMemoFollowsStore(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var now uint64 // the clock's stamp
		clock := new(wire.ManualClock)
		e := NewEngine()
		e.Clock = clock
		for step := 0; step < 120; step++ {
			key := fmt.Sprintf("k%d", rng.Intn(24))
			switch op := rng.Intn(10); {
			case op < 6:
				it := item(key, "v", uint64(1+rng.Intn(6)), fmt.Sprintf("w#%d", rng.Intn(3)))
				if rng.Intn(3) == 0 {
					it.Expire = now + uint64(1+rng.Intn(5))
				}
				it.Tombstone = rng.Intn(8) == 0
				e.Apply(it)
			case op < 8:
				e.Drop(key)
			default:
				d := rng.Intn(4)
				now += uint64(d)
				clock.Advance(time.Duration(d))
				e.PurgeExpired()
			}
			var lo, hi [20]byte
			rng.Read(lo[:])
			if hi = lo; rng.Intn(4) > 0 { // lo == hi is the whole ring
				rng.Read(hi[:])
			}
			buckets := []uint32{uint32(rng.Intn(DigestBuckets)), uint32(rng.Intn(DigestBuckets))}[:1+rng.Intn(2)]
			wantDigest, wantItems := referenceRange(e, now, lo, hi, buckets)
			if got := e.RangeDigest(testKeyID, lo, hi); !reflect.DeepEqual(got, wantDigest) {
				t.Fatalf("seed %d step %d: RangeDigest %x, reference %x", seed, step, got, wantDigest)
			}
			if got := e.RangeItems(testKeyID, lo, hi, buckets); !reflect.DeepEqual(got, wantItems) {
				t.Fatalf("seed %d step %d: RangeItems %v, reference %v", seed, step, got, wantItems)
			}
		}
	}
}

// FuzzEngineMemo is TestKeyIDMemoFollowsStore with the sequence read off
// the input, three bytes a step for up to 240 steps: writes, overwrites
// and stale deliveries (random stamps, some expiring, some tombstones),
// drops, clock advances with a purge, owner installs (ApplyPast) and owner
// republishes (Restamp).
// After every step both memos — the identifier and the item hash — are
// held to the memo-less reference through RangeDigest and RangeItems over
// an arc the step names, and the round's snapshot must list every held
// key once, in ring order, with its own identifier and stamps.
func FuzzEngineMemo(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		prog := make([]byte, 3*120)
		rand.New(rand.NewSource(seed)).Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		var now uint64 // the clock's stamp
		clock := new(wire.ManualClock)
		e := NewEngine()
		e.Clock = clock
		for step := 0; len(prog) >= 3 && step < 240; step++ {
			op, a, b := prog[0], prog[1], prog[2]
			prog = prog[3:]
			key := fmt.Sprintf("k%d", a%24)
			switch op % 10 {
			case 0, 1, 2, 3, 4:
				it := item(key, "v", uint64(1+b%6), fmt.Sprintf("w#%d", b/6%3))
				if op&0x10 != 0 {
					it.Expire = now + uint64(1+a/24%5)
				}
				it.Tombstone = op&0xe0 == 0xe0
				if op%10 == 4 {
					e.ApplyPast(it) // the owner's install of a write
				} else {
					e.Apply(it)
				}
			case 5, 6:
				e.Drop(key)
			case 7, 8:
				now += uint64(b % 4)
				clock.Advance(time.Duration(b % 4))
				e.PurgeExpired()
			default:
				e.Restamp(key, "self", now+8)
			}
			lo, hi := [20]byte{a, b}, [20]byte{b, a}
			if op&0x10 != 0 {
				hi = lo // the whole ring
			}
			buckets := []uint32{uint32(a % DigestBuckets), uint32(b % DigestBuckets)}
			wantDigest, wantItems := referenceRange(e, now, lo, hi, buckets)
			if got := e.RangeDigest(testKeyID, lo, hi); !reflect.DeepEqual(got, wantDigest) {
				t.Fatalf("step %d: RangeDigest %x, reference %x", step, got, wantDigest)
			}
			if got := e.RangeItems(testKeyID, lo, hi, buckets); !reflect.DeepEqual(got, wantItems) {
				t.Fatalf("step %d: RangeItems %v, reference %v", step, got, wantItems)
			}
			snap := e.snapshot(testKeyID)
			if len(snap) != e.Len() {
				t.Fatalf("step %d: snapshot lists %d keys, the store holds %d", step, len(snap), e.Len())
			}
			for i, en := range snap {
				it, ok := e.Get(en.key)
				if !ok || en.id != testKeyID(en.key) || en.expire != it.Expire || en.tombstone != it.Tombstone {
					t.Fatalf("step %d: snapshot entry %+v, store holds %+v (%v)", step, en, it, ok)
				}
				if i > 0 && snap[i-1].id.Cmp(en.id) >= 0 {
					t.Fatalf("step %d: snapshot out of ring order at %d", step, i)
				}
			}
		}
	})
}

// TestIdleRoundHashesNoKey: a node's first anti-entropy round hashes each
// key once per store that holds it — its own, and each peer's when that
// serves its first digest — and a second, idle round hashes nothing, on
// either side of any digest.
func TestIdleRoundHashesNoKey(t *testing.T) {
	const keys = 48
	ctx := context.Background()
	fc := newFakeCluster("n0", "n1", "n2")
	hashed := 0
	fc.keyID = func(k string) [20]byte { hashed++; return testKeyID(k) }
	for i := 0; i < keys; i++ {
		for _, e := range fc.engines {
			e.Apply(item(fmt.Sprintf("k%d", i), "v", 1, "w#1"))
		}
	}
	co := fc.coordinator("n0", Options{Factor: 3})
	// The whole ring is n0's stretch: every key is placed locally.
	ring := []wire.Peer{{Addr: "n0"}, {Addr: "n1", ID: [20]byte{1}}, {Addr: "n2", ID: [20]byte{2}}, {Addr: "n0"}, {Addr: "n1"}, {Addr: "n2"}}
	co.Neighbors = func(context.Context) ([]wire.Peer, int, bool) { return ring, 3, true }
	round := func() {
		t.Helper()
		fc.calls = nil
		if pulled, pushed, dropped, err := co.AntiEntropyOnce(ctx); err != nil || pulled+pushed+dropped != 0 {
			t.Fatalf("round on a converged cluster: pulled %d pushed %d dropped %d, %v", pulled, pushed, dropped, err)
		}
		if want := []string{"n1:digest", "n2:digest"}; !reflect.DeepEqual(fc.calls, want) {
			t.Fatalf("round's calls %v, want %v", fc.calls, want)
		}
	}
	round()
	if want := keys * len(fc.engines); hashed != want {
		t.Errorf("first round hashed %d keys, want %d: each of %d stores its %d keys once", hashed, want, len(fc.engines), keys)
	}
	hashed = 0
	round()
	if hashed != 0 {
		t.Errorf("second, idle round hashed %d keys, want 0", hashed)
	}
	var whole [20]byte
	if _, err := fc.call(ctx, "n0", wire.Request{Type: wire.TDigest, Key: whole, KeyHi: whole}); err != nil || hashed != 0 {
		t.Errorf("a digest served after the round hashed %d keys (%v), want 0", hashed, err)
	}
}
