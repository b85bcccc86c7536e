package replica

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/id"
	"repro/internal/wire"
)

func peerAt(addr string, v uint64) wire.Peer {
	return wire.Peer{Addr: addr, ID: [20]byte(id.FromUint64(v))}
}

// TestPlacementArcs pins the key → set mapping of a ring stretch on
// explicit identifiers: the member closing an arc owns it, arcs that wrap
// past identifier zero included, and a chain that closed the ring decides
// every key.
func TestPlacementArcs(t *testing.T) {
	a, b, c, d, e := peerAt("a", 100), peerAt("b", 200), peerAt("c", 300), peerAt("d", 400), peerAt("e", 500)
	sets := func(p Placement, keys ...uint64) [][]string {
		var out [][]string
		for _, k := range keys {
			set, _ := p.SetOf([20]byte(id.FromUint64(k)))
			out = append(out, set)
		}
		return out
	}

	// Five nodes, factor 3, seen from b: predecessors a, e, d wrap past
	// zero; successors c, d.
	p := NewPlacement([]wire.Peer{d, e, a, b, c, d}, 3, 3)
	got := sets(p, 401, 500, 501, 0, 100, 101, 200, 201, 400)
	want := [][]string{
		{"e", "a", "b"}, {"e", "a", "b"}, // (d, e]
		{"a", "b", "c"}, {"a", "b", "c"}, {"a", "b", "c"}, // (e, a], through zero
		{"b", "c", "d"}, {"b", "c", "d"}, // (a, b]
		nil, nil, // (b, d] is somebody else's
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("five-node stretch:\n got %v\nwant %v", got, want)
	}

	// Two nodes, factor 3: the chain closed the ring at a itself.
	p = NewPlacement([]wire.Peer{a, b, a, b}, 2, 3)
	got = sets(p, 101, 200, 201, 0, 100)
	want = [][]string{{"b", "a"}, {"b", "a"}, {"a", "b"}, {"a", "b"}, {"a", "b"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("two-node ring:\n got %v\nwant %v", got, want)
	}

	// A singleton owns everything.
	p = NewPlacement([]wire.Peer{a, a, a}, 1, 3)
	if got := sets(p, 0, 100, 101); !reflect.DeepEqual(got, [][]string{{"a"}, {"a"}, {"a"}}) {
		t.Errorf("singleton: %v", got)
	}
	if set, ok := (Placement{}).SetOf([20]byte{}); ok || set != nil {
		t.Errorf("the zero placement decided a key: %v", set)
	}
}

// TestCoordinatorLocalSources: with the local sources configured the
// network resolver is reached only for what they do not cover — a held
// key outside the stretch, an operation whose first request the owner
// refused — and the owner's answer to that request stands in for the
// first poll of set[0], or for a write its install there.
func TestCoordinatorLocalSources(t *testing.T) {
	ctx := context.Background()
	fc := newFakeCluster("n0", "n1", "n2")
	co := fc.coordinator("n1", Options{Factor: 3, WriteQuorum: 2, ReadQuorum: 2})
	walked := 0
	co.Resolve = func(context.Context, string) ([]string, error) { walked++; return fc.set, nil }
	vouch := true
	co.OwnerRead = func(_ context.Context, first wire.Request) ([]string, wire.Response, bool) {
		if !vouch {
			return nil, wire.Response{}, false
		}
		owner := fc.engines["n0"]
		if first.Type == wire.TStorePut {
			v, _ := owner.ApplyPast(first.Items[0])
			return fc.set, wire.Response{OK: true, Owner: true, Version: v}, true
		}
		it, ok := owner.Get(first.Name)
		return fc.set, wire.Response{OK: true, Owner: true, Found: ok, Value: it.Value, Version: it.Version, Writer: it.Writer}, true
	}
	fc.engines["n0"].Apply(item("doc", "old", 41, "w#1"))

	if err := co.Put(ctx, "doc", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if it, _ := fc.engines["n2"].Get("doc"); it.Version != 42 || string(it.Value) != "new" {
		t.Errorf("put stamped %d %q, want 42 (one past the owner's version)", it.Version, it.Value)
	}
	if v, found, err := co.Get(ctx, "doc"); err != nil || !found || string(v) != "new" {
		t.Fatalf("get = %q, %v, %v", v, found, err)
	}
	wantCalls := []string{"n1:store_put", "n2:store_put", "n1:store_get"}
	if !reflect.DeepEqual(fc.calls, wantCalls) {
		t.Errorf("calls = %v, want %v (the owner is asked once, by the operation's first request)", fc.calls, wantCalls)
	}
	if walked != 0 || co.Metrics.WalkSets.Value() != 0 || co.Metrics.LocalSets.Value() != 2 {
		t.Errorf("vouched operations: %d walks, walk=%d local=%d", walked, co.Metrics.WalkSets.Value(), co.Metrics.LocalSets.Value())
	}
	vouch = false
	if _, found, err := co.Get(ctx, "doc"); err != nil || !found {
		t.Fatalf("get after a refusal: %v, %v", found, err)
	}
	if walked != 1 || co.Metrics.WalkSets.Value() != 1 {
		t.Errorf("a refused owner read walked %d times (counter %d), want 1", walked, co.Metrics.WalkSets.Value())
	}

	// Anti-entropy: a stretch that closed the ring decides every held key,
	// a round without one leaves every key to the resolver.
	asked := 0
	whole := []wire.Peer{{Addr: "n0"}, {Addr: "n1", ID: [20]byte{1}}, {Addr: "n2", ID: [20]byte{2}}, {Addr: "n0"}, {Addr: "n1"}, {Addr: "n2"}}
	co.Neighbors = func(context.Context) ([]wire.Peer, int, bool) { asked++; return whole, 3, true }
	walked = 0
	if _, _, dropped, err := co.AntiEntropyOnce(ctx); err != nil || dropped != 0 {
		t.Fatalf("anti-entropy: dropped %d, %v", dropped, err)
	}
	if asked != 1 || walked != 0 {
		t.Errorf("covered round asked for the stretch %d times and walked %d times, want 1 and 0", asked, walked)
	}
	co.Neighbors = func(context.Context) ([]wire.Peer, int, bool) { return nil, 0, false }
	if _, _, _, err := co.AntiEntropyOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if walked != 1 {
		t.Errorf("a round without a stretch walked %d times, want once per held key (1)", walked)
	}
	empty := fc.coordinator("n1", Options{Factor: 3})
	empty.Engine = NewEngine()
	empty.Neighbors = func(context.Context) ([]wire.Peer, int, bool) {
		t.Error("an empty store asked for its ring stretch")
		return nil, 0, false
	}
	if _, _, _, err := empty.AntiEntropyOnce(ctx); err != nil {
		t.Fatal(err)
	}
}
