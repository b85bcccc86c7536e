//go:build !race

package replica

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/wire"
)

// TestRangeDigestAllocBudget: a digest over a store whose identifiers are
// memoised is one heap object, the digest itself, and no call of the key
// mapping.
func TestRangeDigestAllocBudget(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 256; i++ {
		e.Apply(item(fmt.Sprintf("k%d", i), "v", 1, "w#1"))
	}
	hashed := 0
	keyID := func(k string) [20]byte { hashed++; return testKeyID(k) }
	var whole [20]byte
	e.RangeDigest(keyID, whole, whole)
	if hashed != 256 {
		t.Fatalf("first digest hashed %d keys, want 256", hashed)
	}
	hashed = 0
	avg := testing.AllocsPerRun(100, func() { e.RangeDigest(keyID, whole, whole) })
	if avg != 1 || hashed != 0 {
		t.Errorf("a warm digest made %.1f heap objects and hashed %d keys, budget 1 and 0", avg, hashed)
	}
}

// TestAllocBudgetIdleAntiEntropyRound: the garbage of an idle round —
// three converged stores, every key placed from the ring stretch, a digest
// to each peer — does not grow with the number of keys held: the same heap
// objects at 100 and at 1,000 keys (within 2), and at most 96 bytes per
// held key, what one pass over a ring-ordered snapshot costs (17 objects
// at both sizes, 84 B). The round this replaced listed the keys twice,
// built three maps keyed by key and sorted each peer's identifiers: 62
// objects at 100 keys, 91 at 1,000, and 446 B per held key.
func TestAllocBudgetIdleAntiEntropyRound(t *testing.T) {
	perRound := func(keys int) (objects, bytes float64) {
		fc := newFakeCluster("n0", "n1", "n2")
		for i := 0; i < keys; i++ {
			for _, e := range fc.engines {
				e.Apply(item(fmt.Sprintf("k%d", i), "v", 1, "w#1"))
			}
		}
		co := fc.coordinator("n0", Options{Factor: 3})
		ring := []wire.Peer{{Addr: "n0"}, {Addr: "n1", ID: [20]byte{1}}, {Addr: "n2", ID: [20]byte{2}}, {Addr: "n0"}, {Addr: "n1"}, {Addr: "n2"}}
		co.Neighbors = func(context.Context) ([]wire.Peer, int, bool) { return ring, 3, true }
		round := func() {
			fc.calls = fc.calls[:0]
			if pulled, pushed, dropped, err := co.AntiEntropyOnce(context.Background()); err != nil || pulled+pushed+dropped != 0 {
				t.Fatalf("round on a converged cluster: pulled %d pushed %d dropped %d, %v", pulled, pushed, dropped, err)
			}
		}
		round() // the first round fills the identifier memos
		const rounds = 20
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for r := 0; r < rounds; r++ {
			round()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / rounds, float64(after.TotalAlloc-before.TotalAlloc) / rounds
	}
	small, _ := perRound(100)
	large, bytes := perRound(1000)
	t.Logf("heap objects per round: %.1f at 100 keys, %.1f at 1,000; %.0f B per round, %.1f B per held key", small, large, bytes, bytes/1000)
	if large-small > 2 || small-large > 2 {
		t.Errorf("an idle round made %.1f heap objects at 100 keys and %.1f at 1,000: it allocates per key", small, large)
	}
	if perKey := bytes / 1000; perKey > 96 {
		t.Errorf("an idle round allocated %.1f B per held key, budget 96", perKey)
	}
}

// TestAllocBudgetQuorumGet: a quorum read whose polled members agree
// builds nothing it does not send — no read-repair request, no slice of
// polled members. Through a Call that answers from a fixed item it makes
// no heap object at all; it made 3 when it built the repair request (and
// its Items) up front and grew the polled list by append.
func TestAllocBudgetQuorumGet(t *testing.T) {
	set := []string{"n0", "n1", "n2"}
	stored := wire.Response{OK: true, Found: true, Value: []byte("v"), Version: 4, Writer: "n0#1"}
	co := &Coordinator{
		Self:    "n0",
		Opts:    Options{Factor: 3, ReadQuorum: 2},
		Engine:  NewEngine(),
		Resolve: func(context.Context, string) ([]string, error) { return set, nil },
		Call: func(_ context.Context, _ string, req wire.Request) (wire.Response, error) {
			if req.Type != wire.TStoreGet {
				return wire.Response{}, fmt.Errorf("unexpected %v", req.Type)
			}
			return stored, nil
		},
		Metrics: NewMetrics(nil),
	}
	avg := testing.AllocsPerRun(200, func() {
		if v, found, err := co.Get(context.Background(), "k"); err != nil || !found || string(v) != "v" {
			t.Fatalf("get = %q, %v, %v", v, found, err)
		}
	})
	if avg != 0 {
		t.Errorf("an agreeing quorum read made %.1f heap objects, budget 0", avg)
	}
}

// TestAllocBudgetReplicaSet: a replica set is one heap object, the set
// itself, whatever the successor list repeats — no list with the owner
// prepended, no map to dedupe: the set is at most want long, so scanning
// it is the dedupe.
func TestAllocBudgetReplicaSet(t *testing.T) {
	succs := []string{"n1", "n0", "n2", "n1", "n3"}
	if avg := testing.AllocsPerRun(100, func() { ReplicaSet("n0", succs, 3) }); avg != 1 {
		t.Errorf("ReplicaSet made %.1f heap objects, budget 1", avg)
	}
}
