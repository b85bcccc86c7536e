package replica

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/id"
	"repro/internal/wire"
)

func item(key, val string, version uint64, writer string) wire.StoreItem {
	return wire.StoreItem{Key: key, Value: []byte(val), Version: version, Writer: writer}
}

func TestOptionsWithDefaults(t *testing.T) {
	cases := []struct {
		in   Options
		want Options
	}{
		{Options{}, Options{Factor: 3, WriteQuorum: 2, ReadQuorum: 1}},
		{Options{Factor: 5}, Options{Factor: 5, WriteQuorum: 3, ReadQuorum: 1}},
		{Options{Factor: 1}, Options{Factor: 1, WriteQuorum: 1, ReadQuorum: 1}},
		{Options{Factor: -2}, Options{Factor: 1, WriteQuorum: 1, ReadQuorum: 1}},
		{Options{Factor: 3, WriteQuorum: 9, ReadQuorum: 9}, Options{Factor: 3, WriteQuorum: 3, ReadQuorum: 3}},
		{Options{Factor: 3, WriteQuorum: -1, ReadQuorum: -1}, Options{Factor: 3, WriteQuorum: 1, ReadQuorum: 1}},
	}
	for _, c := range cases {
		if got := c.in.WithDefaults(); got != c.want {
			t.Errorf("WithDefaults(%+v) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestSupersedesTotalOrder(t *testing.T) {
	a := item("k", "a", 2, "n1#1")
	b := item("k", "b", 1, "n2#9")
	if !supersedes(a, b) || supersedes(b, a) {
		t.Error("higher version must win")
	}
	c := item("k", "c", 2, "n2#1")
	if !supersedes(c, a) || supersedes(a, c) {
		t.Error("equal versions must break ties on writer")
	}
	if supersedes(a, a) {
		t.Error("an item must not supersede itself")
	}
}

func TestEngineMergeIdempotent(t *testing.T) {
	e := NewEngine()
	first := item("doc", "v1", 1, "n0#1")
	if !e.Apply(first) {
		t.Fatal("fresh apply should advance the store")
	}
	if e.Apply(first) {
		t.Error("replaying the same item must be a no-op")
	}
	newer := item("doc", "v2", 2, "n1#1")
	batch := []wire.StoreItem{newer, first, item("other", "x", 1, "n0#2")}
	if got := e.ApplyBatch(batch); got != 2 {
		t.Errorf("ApplyBatch applied %d, want 2 (newer doc + other)", got)
	}
	if got := e.ApplyBatch(batch); got != 0 {
		t.Errorf("replayed batch applied %d, want 0", got)
	}
	it, ok := e.Get("doc")
	if !ok || string(it.Value) != "v2" {
		t.Errorf("doc = %q (found %v), want v2", it.Value, ok)
	}
}

func TestEngineStampAdvancesPastSeen(t *testing.T) {
	e := NewEngine()
	v, w := e.Stamp("k", "n0", 7)
	if v != 8 {
		t.Errorf("stamp past seen=7 gave version %d, want 8", v)
	}
	if w != "n0#1" {
		t.Errorf("writer = %q, want n0#1", w)
	}
	e.Apply(item("k", "x", 12, "n9#1"))
	if v, _ := e.Stamp("k", "n0", 3); v != 13 {
		t.Errorf("stamp must clear the held version: got %d, want 13", v)
	}
	// Writer nonces never repeat, even for the same (node, key, version).
	_, w2 := e.Stamp("k", "n0", 0)
	_, w3 := e.Stamp("k", "n0", 0)
	if w2 == w3 {
		t.Errorf("writer stamps must be unique, got %q twice", w2)
	}
}

func TestEngineItemsSortedAndDeepCopied(t *testing.T) {
	e := NewEngine()
	e.Apply(item("b", "2", 1, "w"))
	e.Apply(item("a", "1", 1, "w"))
	items := e.Items()
	if len(items) != 2 || items[0].Key != "a" || items[1].Key != "b" {
		t.Fatalf("Items() = %v, want sorted [a b]", items)
	}
	items[0].Value[0] = 'X'
	if it, _ := e.Get("a"); string(it.Value) != "1" {
		t.Error("Items() must deep-copy values")
	}
	if !reflect.DeepEqual(e.Keys(), []string{"a", "b"}) {
		t.Errorf("Keys() = %v", e.Keys())
	}
}

func TestReplicaSetDedupAndClamp(t *testing.T) {
	set := ReplicaSet(nil, "n0", peers("n1", "n0", "n2", "n3"), 3)
	if !reflect.DeepEqual(set, []string{"n0", "n1", "n2"}) {
		t.Errorf("set = %v", set)
	}
	if got := ReplicaSet(nil, "n0", peers("n0"), 3); !reflect.DeepEqual(got, []string{"n0"}) {
		t.Errorf("tiny ring set = %v", got)
	}
	if got := ReplicaSet(nil, "n0", nil, 0); !reflect.DeepEqual(got, []string{"n0"}) {
		t.Errorf("want<1 must clamp to owner-only, got %v", got)
	}
	// A caller's buffer is reused from its start, whatever it held.
	buf := []string{"n2", "n3", "n9"}
	if got := ReplicaSet(buf, "n3", peers("n2", "n3", "n4"), 3); !reflect.DeepEqual(got, []string{"n3", "n2", "n4"}) || &got[0] != &buf[0] {
		t.Errorf("set built in a used buffer = %v", got)
	}
}

// peers names wire peers by address alone.
func peers(addrs ...string) []wire.Peer {
	out := make([]wire.Peer, len(addrs))
	for i, a := range addrs {
		out[i].Addr = a
	}
	return out
}

// fakeCluster wires a Coordinator to in-memory member engines, with a
// controllable set of dead members.
type fakeCluster struct {
	mu      sync.Mutex
	engines map[string]*Engine
	dead    map[string]bool
	set     []string
	calls   []string // "addr:type" log
	// keyID is the key → ring identifier mapping the members and the
	// coordinators share: testKeyID, unless a test counts its calls.
	keyID func(string) [20]byte
	// owner answers ownership-checked puts as every key's owner: the
	// first member, unless a test moves it ("" = nobody owns).
	owner string
}

func newFakeCluster(members ...string) *fakeCluster {
	fc := &fakeCluster{engines: map[string]*Engine{}, dead: map[string]bool{}, set: members, keyID: testKeyID, owner: members[0]}
	for _, m := range members {
		fc.engines[m] = NewEngine()
	}
	return fc
}

func (fc *fakeCluster) call(ctx context.Context, addr string, req wire.Request) (wire.Response, error) {
	fc.mu.Lock()
	fc.calls = append(fc.calls, fmt.Sprintf("%s:%s", addr, req.Type))
	dead := fc.dead[addr]
	e := fc.engines[addr]
	fc.mu.Unlock()
	if dead || e == nil {
		return wire.Response{}, &wire.NetError{Addr: addr, Op: "dial", Err: fmt.Errorf("down")}
	}
	switch req.Type {
	case wire.TStoreGet, wire.TStorePut:
		var resp wire.Response
		e.ServeLocked(&req, &resp, func(string) ([]wire.Peer, bool) { return nil, addr == fc.owner })
		return wire.Answered(req.Type, resp)
	case wire.TReplicate, wire.THandoff:
		return wire.Response{OK: true, Applied: e.ApplyBatch(req.Items)}, nil
	case wire.TDigest:
		return wire.Response{OK: true, Digests: e.RangeDigest(fc.keyID, req.Key, req.KeyHi)}, nil
	case wire.TSyncPull:
		return wire.Response{OK: true, Items: e.RangeItems(fc.keyID, req.Key, req.KeyHi, req.Buckets)}, nil
	}
	return wire.Response{}, fmt.Errorf("unexpected %v", req.Type)
}

// testKeyID is the fake cluster's default key → ring identifier mapping.
func testKeyID(key string) [20]byte { return id.HashString(key) }

func (fc *fakeCluster) coordinator(self string, opts Options) *Coordinator {
	return &Coordinator{
		Self:    self,
		Opts:    opts,
		Engine:  fc.engines[self],
		Resolve: func(context.Context, string) ([]string, error) { return fc.set, nil },
		Call:    fc.call,
		KeyID:   fc.keyID,
	}
}

func TestCoordinatorQuorumWriteAndRead(t *testing.T) {
	fc := newFakeCluster("n0", "n1", "n2")
	co := fc.coordinator("n0", Options{Factor: 3, WriteQuorum: 2, ReadQuorum: 2})
	if err := co.Put(context.Background(), "doc", []byte("v1")); err != nil {
		t.Fatalf("put: %v", err)
	}
	for _, m := range fc.set {
		if it, ok := fc.engines[m].Get("doc"); !ok || string(it.Value) != "v1" {
			t.Errorf("member %s missing the write (found %v)", m, ok)
		}
	}
	v, err := co.Get(context.Background(), "doc")
	if err != nil || string(v) != "v1" {
		t.Fatalf("get = %q, %v", v, err)
	}
	// Unanimous empty → clean not-found.
	if _, err := co.Get(context.Background(), "ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("ghost get = %v, want clean not-found", err)
	}
}

func TestCoordinatorWriteToleratesMinorityFailure(t *testing.T) {
	fc := newFakeCluster("n0", "n1", "n2")
	fc.dead["n2"] = true
	co := fc.coordinator("n0", Options{Factor: 3, WriteQuorum: 2})
	if err := co.Put(context.Background(), "doc", []byte("v1")); err != nil {
		t.Fatalf("put with one dead replica should ack at W=2: %v", err)
	}
	fc.dead["n1"] = true
	if err := co.Put(context.Background(), "doc2", []byte("v2")); err == nil {
		t.Fatal("put with two dead replicas must fail at W=2")
	}
	if got := co.Metrics.Failures.With("put").Value(); got != 1 {
		t.Errorf("quorum_failures_total{op=put} = %d, want 1", got)
	}
}

func TestCoordinatorReadRepair(t *testing.T) {
	fc := newFakeCluster("n0", "n1", "n2")
	fresh := item("doc", "new", 5, "n9#1")
	fc.engines["n0"].Apply(item("doc", "old", 1, "n8#1"))
	fc.engines["n1"].Apply(fresh)
	co := fc.coordinator("n0", Options{Factor: 3, ReadQuorum: 3})
	v, err := co.Get(context.Background(), "doc")
	if err != nil || string(v) != "new" {
		t.Fatalf("get = %q, %v; want freshest", v, err)
	}
	// n0 (stale) and n2 (missing) must have been repaired.
	for _, m := range []string{"n0", "n2"} {
		if it, ok := fc.engines[m].Get("doc"); !ok || string(it.Value) != "new" {
			t.Errorf("member %s not read-repaired: %q (found %v)", m, it.Value, ok)
		}
	}
	if got := co.Metrics.ReadRepairs.Value(); got != 2 {
		t.Errorf("read_repairs_total = %d, want 2", got)
	}
}

func TestCoordinatorGetDistrustsPartialSilence(t *testing.T) {
	fc := newFakeCluster("n0", "n1", "n2")
	fc.dead["n1"] = true
	co := fc.coordinator("n0", Options{Factor: 3, ReadQuorum: 1})
	// Nothing stored anywhere, one member unreachable: must error, not
	// report a clean miss.
	if _, err := co.Get(context.Background(), "ghost"); err == nil || errors.Is(err, ErrNotFound) {
		t.Errorf("partial silence: %v, want an error other than not-found", err)
	}
}

// TestCoordinatorSweepReplicatesAndDrops pins anti-entropy's re-homing
// half: a key held by a node outside its replica set is pushed to every
// member and dropped locally once all of them confirmed.
func TestCoordinatorSweepReplicatesAndDrops(t *testing.T) {
	fc := newFakeCluster("n0", "n1", "n2", "n3")
	// n3 holds a copy of a key whose replica set is {n0,n1,n2}: it left
	// the set after churn.
	fc.engines["n3"].Apply(item("orphan", "x", 3, "w#1"))
	fc.set = []string{"n0", "n1", "n2"}
	co := fc.coordinator("n3", Options{Factor: 3})
	pulled, pushed, dropped, err := co.AntiEntropyOnce(context.Background())
	if err != nil {
		t.Fatalf("anti-entropy: %v", err)
	}
	if pulled != 0 || pushed != 0 || dropped != 1 {
		t.Errorf("anti-entropy pulled=%d pushed=%d dropped=%d, want 0, 0 and 1", pulled, pushed, dropped)
	}
	for _, m := range fc.set {
		if it, ok := fc.engines[m].Get("orphan"); !ok || string(it.Value) != "x" {
			t.Errorf("member %s missing re-homed key (found %v)", m, ok)
		}
	}
	if _, ok := fc.engines["n3"].Get("orphan"); ok {
		t.Error("n3 must drop the key after all members confirmed")
	}
	if got := co.Metrics.Dropped.Value(); got != 1 {
		t.Errorf("replica_dropped_total = %d, want 1", got)
	}
	if got := co.Metrics.RereplBytes.Value(); got != 3 {
		t.Errorf("rereplication_bytes_total = %d, want 3 (one value byte to each of three members)", got)
	}
}

func TestCoordinatorSweepKeepsCopyWhileMemberUnreachable(t *testing.T) {
	fc := newFakeCluster("n0", "n1", "n2", "n3")
	fc.engines["n3"].Apply(item("orphan", "x", 3, "w#1"))
	fc.set = []string{"n0", "n1", "n2"}
	fc.dead["n2"] = true
	co := fc.coordinator("n3", Options{Factor: 3})
	_, _, dropped, err := co.AntiEntropyOnce(context.Background())
	if err == nil {
		t.Error("a round that could not reach a member must report it")
	}
	if dropped != 0 {
		t.Error("must not drop the local copy before every member confirmed")
	}
	if _, ok := fc.engines["n3"].Get("orphan"); !ok {
		t.Error("local copy destroyed while a replica-set member was unreachable")
	}
}

// TestCoordinatorSweepDeterministicOrder pins that a round's wire
// traffic — digests, pulls and push-backs to two peers that lack three
// keys — is the same call sequence on every run.
func TestCoordinatorSweepDeterministicOrder(t *testing.T) {
	run := func() []string {
		fc := newFakeCluster("n0", "n1", "n2")
		for _, k := range []string{"kb", "ka", "kc"} {
			fc.engines["n0"].Apply(item(k, "v", 1, "w#1"))
		}
		co := fc.coordinator("n0", Options{Factor: 3})
		if _, pushed, _, err := co.AntiEntropyOnce(context.Background()); err != nil || pushed != 6 {
			t.Fatalf("anti-entropy pushed=%d err=%v, want 6 (three keys to two peers)", pushed, err)
		}
		return fc.calls
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); !reflect.DeepEqual(got, first) {
			t.Fatalf("anti-entropy wire order not deterministic:\n  %v\n  %v", first, got)
		}
	}
}

// TestAntiEntropyRoundCharacterized pins one round's exact wire traffic
// across four nodes, every branch taken once: n0 re-homes two foreign keys,
// pulls the newer copy of "a" from n1, pushes "a" and "b" back to n2, and
// finds n3 converged on "c".
func TestAntiEntropyRoundCharacterized(t *testing.T) {
	fc := newFakeCluster("n0", "n1", "n2", "n3")
	sets := map[string][]string{
		"a": {"n0", "n1", "n2"}, "b": {"n0", "n1", "n2"}, "c": {"n3", "n0", "n1"},
		"orphan-1": {"n1", "n2", "n3"}, "orphan-2": {"n3", "n2", "n1"},
	}
	for _, k := range []string{"a", "b", "c", "orphan-1", "orphan-2"} {
		fc.engines["n0"].Apply(item(k, "v", 1, "w#1"))
	}
	fc.engines["n1"].ApplyBatch([]wire.StoreItem{item("a", "v2", 2, "w#2"), item("b", "v", 1, "w#1"), item("c", "v", 1, "w#1")})
	fc.engines["n2"].Apply(item("a", "v", 1, "w#1"))
	fc.engines["n3"].Apply(item("c", "v", 1, "w#1"))
	co := fc.coordinator("n0", Options{Factor: 3})
	co.Resolve = func(_ context.Context, key string) ([]string, error) { return sets[key], nil }

	pulled, pushed, dropped, err := co.AntiEntropyOnce(context.Background())
	if err != nil || pulled != 1 || pushed != 2 || dropped != 2 {
		t.Errorf("round pulled %d pushed %d dropped %d (%v), want 1, 2 and 2", pulled, pushed, dropped, err)
	}
	// Re-home batches go out in first-appearance order over the round's
	// ring-ordered snapshot: orphan-2 (identifier 0x2543…) comes before
	// orphan-1 (0xe34c…), so its set's order, n3 n2 n1, leads. A round that
	// walked the keys in name order sent n1 n2 n3; either order is fixed
	// by the store alone. Everything after the re-home is per peer, in
	// address order, and did not move.
	want := []string{
		"n3:replicate", "n2:replicate", "n1:replicate",
		"n1:digest", "n1:sync_pull",
		"n2:digest", "n2:sync_pull", "n2:replicate",
		"n3:digest",
	}
	if !reflect.DeepEqual(fc.calls, want) {
		t.Errorf("round's calls\n  %v\nwant\n  %v", fc.calls, want)
	}
	held := map[string][]string{
		"n0": {"a", "b", "c"}, "n1": {"a", "b", "c", "orphan-1", "orphan-2"},
		"n2": {"a", "b", "orphan-1", "orphan-2"}, "n3": {"c", "orphan-1", "orphan-2"},
	}
	for node, keys := range held {
		if got := fc.engines[node].Keys(); !reflect.DeepEqual(got, keys) {
			t.Errorf("%s holds %v after the round, want %v", node, got, keys)
		}
		if it, _ := fc.engines[node].Get("a"); node != "n3" && it.Version != 2 {
			t.Errorf("%s holds version %d of a, want 2", node, it.Version)
		}
	}
}
