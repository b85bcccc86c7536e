package transport

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/wire"
)

// TestOwnerStampPut drives a write's first exchange, the ownership-checked
// store_put, against real nodes. The owner raises a stale proposal past
// the version it holds, installs it and names the rest of the replica set;
// a replay installs nothing and answers the held stamp; a member that does
// not own the key installs nothing and reports only the version it holds.
// A coordinator whose own copy is stale then writes past the owner's
// version, for one store_put per remote member and no read.
func TestOwnerStampPut(t *testing.T) {
	const factor, key = 3, "stamped"
	ctx := context.Background()
	nodes := replicaCluster(t, wire.NewMemNet(), 8, factor, RouteOneHop)
	stabilizeAll(t, nodes, 2)
	set := replicaSetOf(nodes, key, factor)
	owner, member, coord := set[0], set[1], set[2]
	from := without(nodes, set...)[0]
	put := func(to *Node, version uint64, writer string) wire.Response {
		t.Helper()
		it := wire.StoreItem{Key: key, Value: []byte(writer), Version: version, Writer: writer}
		resp, err := from.call(ctx, to.Addr(), wire.Request{Type: wire.TStorePut, Name: key, Layer: 1, Items: []wire.StoreItem{it}})
		if err != nil {
			t.Fatalf("ownership-checked put to %s: %v", to.Addr(), err)
		}
		return resp
	}

	owner.store.Apply(wire.StoreItem{Key: key, Value: []byte("held"), Version: 41, Writer: "w#1"})
	resp := put(owner, 1, "c#1")
	var succ []string
	for _, p := range resp.Succ {
		succ = append(succ, p.Addr)
	}
	if !resp.Owner || resp.Version != 42 || resp.Applied != 1 || !slices.Equal(succ, []string{member.Addr(), coord.Addr()}) {
		t.Fatalf("the owner answered %+v, want Owner, version 42, one applied and successors %s %s", resp, member.Addr(), coord.Addr())
	}
	if resp := put(owner, 1, "c#1"); !resp.Owner || resp.Version != 42 || resp.Applied != 0 {
		t.Errorf("a replay got %+v, want Owner, the held version 42 and nothing applied", resp)
	}
	if it, _ := owner.store.Get(key); it.Version != 42 || it.Writer != "c#1" {
		t.Errorf("the owner holds %d by %s after the replay, want 42 by c#1", it.Version, it.Writer)
	}
	member.store.Apply(wire.StoreItem{Key: key, Value: []byte("m"), Version: 7, Writer: "w#2"})
	if resp := put(member, 50, "d#1"); resp.Owner || resp.Version != 7 || resp.Applied != 0 || len(resp.Succ) != 0 {
		t.Errorf("a non-owner answered %+v, want its held version 7 alone", resp)
	}
	if it, _ := member.store.Get(key); it.Version != 7 || it.Writer != "w#2" {
		t.Errorf("the non-owner installed %d by %s", it.Version, it.Writer)
	}

	coord.store.Apply(wire.StoreItem{Key: key, Value: []byte("stale"), Version: 3, Writer: "w#0"})
	before := rpcsByType(t, nodes...)
	if err := coord.Put(ctx, key, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	want, _ := owner.store.Get(key)
	if want.Version != 43 || string(want.Value) != "fresh" {
		t.Fatalf("the owner holds %q at %d, want fresh at 43: one past what it held", want.Value, want.Version)
	}
	for _, nd := range set {
		if it, _ := nd.store.Get(key); it.Version != want.Version || it.Writer != want.Writer || string(it.Value) != "fresh" {
			t.Errorf("%s holds %q at %d by %s; the owner %q at %d by %s", nd.Addr(), it.Value, it.Version, it.Writer, want.Value, want.Version, want.Writer)
		}
	}
	if got, wantRPCs := rpcsSince(t, before, nodes...), map[string]float64{"store_put": factor - 1}; !reflect.DeepEqual(got, wantRPCs) {
		t.Errorf("a put from a member cost %v, want %v", got, wantRPCs)
	}
}

// TestOwnerStampRefusedHint: a joiner has taken over part of its
// successor's arc and no gossip has run, so the writer's one-hop table
// still names the old owner. The old owner refuses the ownership-checked
// put and installs nothing; the write resolves its set over the network,
// and set[0], the joiner, stamps it past the version it holds. Every
// member ends with the joiner's stamp, and the write reads nothing.
func TestOwnerStampRefusedHint(t *testing.T) {
	const factor = 3
	ctx := context.Background()
	mem := wire.NewMemNet()
	nodes := replicaCluster(t, mem, 8, factor, RouteOneHop)
	joinerID := NodeID("joiner")
	key := ownedBy("refused", predOf(nodes, joinerID).ID(), joinerID, 1)[0]
	oldOwner := trueOwner(nodes, joinerID)
	joiner := startOneRing(t, mem, "joiner", replicaTweak(factor, RouteOneHop))
	if err := joiner.Join("n0"); err != nil {
		t.Fatal(err)
	}
	all := append(append([]*Node(nil), nodes...), joiner)
	stabilizeLayers(t, all) // rings heal; no gossip, no anti-entropy
	set := replicaSetOf(all, key, factor)
	if set[0] != joiner {
		t.Fatalf("%s is owned by %s, want the joiner", key, set[0].Addr())
	}
	joiner.store.Apply(wire.StoreItem{Key: key, Value: []byte("planted"), Version: 9, Writer: "w#1"})
	var writer *Node
	for _, nd := range without(nodes, oldOwner) {
		if hint, _ := nd.routes.Owner(1, "", [20]byte(LiveKeyID(key))); hint.Addr == oldOwner.Addr() {
			writer = nd
			break
		}
	}
	if writer == nil {
		t.Fatalf("no node's table names the old owner %s", oldOwner.Addr())
	}

	stale := counterValue(t, writer, "onehop_stale_total")
	before := rpcsByType(t, writer)
	if err := writer.Put(ctx, key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if counterValue(t, writer, "onehop_stale_total") == stale {
		t.Error("the old owner's refusal did not count as a stale table answer")
	}
	// The refused put, the put to set[0] and the owner's stamp to the rest
	// of the set; had set[0] refused too, it would have had one more.
	wantPuts := 2.0
	for _, nd := range set[1:] {
		if nd != writer {
			wantPuts++
		}
	}
	if got := rpcsSince(t, before, writer); got["store_put"] != wantPuts || got["store_get"] != 0 {
		t.Errorf("the write cost %v, want %v store_put and no store_get", got, wantPuts)
	}
	want, _ := joiner.store.Get(key)
	if want.Version != 10 || string(want.Value) != "v" {
		t.Fatalf("the joiner holds %q at %d, want v at 10: set[0] stamps the write past what it holds", want.Value, want.Version)
	}
	for _, nd := range set {
		if it, _ := nd.store.Get(key); it.Version != want.Version || it.Writer != want.Writer {
			t.Errorf("%s holds %d by %s, the joiner %d by %s", nd.Addr(), it.Version, it.Writer, want.Version, want.Writer)
		}
	}
}

// TestOwnerStampConcurrentWriters: eight coordinators write one key at
// once. The owner serialises them — each install is one past the last —
// so once every write is acknowledged every member holds the same stamp,
// the eighth version, and a quorum read from any node returns its value.
func TestOwnerStampConcurrentWriters(t *testing.T) {
	const factor, key = 3, "contended"
	ctx := context.Background()
	nodes := replicaCluster(t, wire.NewMemNet(), 8, factor, RouteOneHop)
	stabilizeAll(t, nodes, 2)
	var wg sync.WaitGroup
	for i, nd := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := nd.Put(ctx, key, []byte(fmt.Sprintf("w%d", i))); err != nil {
				t.Errorf("put from %s: %v", nd.Addr(), err)
			}
		}()
	}
	wg.Wait()
	set := replicaSetOf(nodes, key, factor)
	want, _ := set[0].store.Get(key)
	if want.Version != uint64(len(nodes)) {
		t.Errorf("the owner holds version %d after %d writes, want %d: one past the last for each", want.Version, len(nodes), len(nodes))
	}
	for _, nd := range set[1:] {
		if it, _ := nd.store.Get(key); it.Version != want.Version || it.Writer != want.Writer {
			t.Errorf("%s holds %d by %s, the owner %d by %s", nd.Addr(), it.Version, it.Writer, want.Version, want.Writer)
		}
	}
	for _, nd := range nodes {
		if v, err := nd.Get(ctx, key); err != nil || string(v) != string(want.Value) {
			t.Errorf("get from %s = %q, %v; the owner holds %q", nd.Addr(), v, err, want.Value)
		}
	}
}
