package transport

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/id"
	"repro/internal/replica"
	"repro/internal/wire"
)

// replicaTweak configures a node for the given replica factor, with
// majority quorums, and route mode.
func replicaTweak(factor int, mode string) func(*Config) {
	return func(cfg *Config) {
		cfg.RouteMode = mode
		cfg.Replication = replica.Options{Factor: factor, WriteQuorum: factor/2 + 1, ReadQuorum: factor/2 + 1}
	}
}

// replicaCluster starts n nodes "n0".."n<n-1>" in one lower ring on dn
// (see oneRingCluster), configured by replicaTweak, and stabilises them
// to convergence.
func replicaCluster(t *testing.T, dn *DirectNet, n, factor int, mode string) []*Node {
	t.Helper()
	names := make([]string, n)
	for i := range names {
		names[i] = "n" + strconv.Itoa(i)
	}
	return oneRingCluster(t, dn, names, replicaTweak(factor, mode))
}

// rpcsSince returns the per-type RPC attempts made since before was
// taken, without the types that did not move.
func rpcsSince(t *testing.T, before map[string]float64, nodes ...*Node) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for typ, v := range rpcsByType(t, nodes...) {
		if d := v - before[typ]; d != 0 {
			out[typ] = d
		}
	}
	return out
}

func resolves(t *testing.T, path string, nodes ...*Node) float64 {
	t.Helper()
	return clusterCounter(t, nodes, `replica_resolves_total{path="`+path+`"}`)
}

// copiesOf counts the nodes holding key locally.
func copiesOf(nodes []*Node, key string) int {
	copies := 0
	for _, nd := range nodes {
		if _, ok := nd.GetLocal(key); ok {
			copies++
		}
	}
	return copies
}

// TestLocalReplicaSetsMatchResolver is the equivalence the local sources
// rest on: on a converged ring the set a node computes from its ring
// stretch (replicaNeighbors) and the set the owner names on an
// ownership-checked read (ownerRead) are the network resolver's, member
// for member, for rings smaller than the factor, smaller than the stretch
// and larger than both, keys in the arc that wraps past identifier zero
// included. It also pins that an empty store's anti-entropy round asks
// nobody anything.
func TestLocalReplicaSetsMatchResolver(t *testing.T) {
	const keys = 500
	ctx := context.Background()
	for _, mode := range []string{RouteClassic, RouteOneHop} {
		for _, n := range []int{1, 2, 3, 4, 5, 16} {
			for factor := 1; factor <= 3; factor++ {
				t.Run(fmt.Sprintf("%s/n=%d/r=%d", mode, n, factor), func(t *testing.T) {
					nodes := replicaCluster(t, NewDirectNet(), n, factor, mode)
					before := rpcsByType(t, nodes...)
					for _, nd := range nodes {
						if _, _, _, err := nd.ReplicaAntiEntropyOnce(); err != nil {
							t.Fatal(err)
						}
					}
					if moved := rpcsSince(t, before, nodes...); len(moved) != 0 {
						t.Errorf("anti-entropy over empty stores issued RPCs: %v", moved)
					}

					places := make([]replica.Placement, n)
					for i, nd := range nodes {
						chain, self, ok := nd.replicaNeighbors(ctx)
						if !ok {
							t.Fatalf("%s: no ring stretch on a converged ring", nd.Addr())
						}
						places[i] = replica.NewPlacement(chain, self, factor)
					}
					ring := byIDOrder(nodes)
					wrapped := 0
					for k := 0; k < keys; k++ {
						key := fmt.Sprintf("eq-%s-%d-%d-%d", mode, n, factor, k)
						kid := LiveKeyID(key)
						if ring[len(ring)-1].ID().Less(kid) || !ring[0].ID().Less(kid) {
							wrapped++
						}
						want, err := nodes[k%n].resolveReplicaSet(ctx, key)
						if err != nil {
							t.Fatalf("resolve %s: %v", key, err)
						}
						owner, answer, ok := nodes[(k+1)%n].ownerRead(ctx, wire.Request{Type: wire.TStoreGet, Name: key, Layer: 1})
						got := replica.ReplicaSet(nil, owner, answer.Succ, factor)
						if !ok || !slices.Equal(got, want) {
							t.Fatalf("%s: owner read names %v (ok=%v), resolver %v", key, got, ok, want)
						}
						covered := 0
						for i, nd := range nodes {
							set, ok := places[i].SetOf(kid)
							if !ok {
								continue
							}
							covered++
							if !slices.Equal(set, want) {
								t.Fatalf("%s at %s: local set %v, resolver %v", key, nd.Addr(), set, want)
							}
							if !slices.Contains(want, nd.Addr()) {
								t.Fatalf("%s: %s computes a set it is not a member of", key, nd.Addr())
							}
						}
						if covered != len(want) {
							t.Fatalf("%s: %d nodes compute its set locally, want its %d members", key, covered, len(want))
						}
					}
					if wrapped == 0 {
						t.Error("no key fell in the arc wrapping past identifier zero")
					}
				})
			}
		}
	}
}

// TestReplicaCostPins counts, on the nodes' own per-type RPC counters,
// what the local sources make the replica layer cost on a converged
// 8-node one-hop cluster: an anti-entropy round is Factor-1 get_neighbors
// (the predecessor chain) plus one digest per replica peer, a Get is one
// store_get per remote member of the read quorum and a Put one store_put
// per member (the first installs at the owner and reads nothing), each
// unless that member is the coordinator itself — no find_closest
// anywhere, no store_get in a write, and no replica set
// obtained by a walk. (The pins used to read ReadQuorum and 1 + Factor
// flat: the coordinator sent itself its own share over its listener. What
// a node asks itself is answered in-process and is not a message.)
func TestReplicaCostPins(t *testing.T) {
	const factor, keys = 3, 64
	ctx := context.Background()
	nodes := replicaCluster(t, NewDirectNet(), 8, factor, RouteOneHop)
	keyAt := func(i int) string { return "pin-" + strconv.Itoa(i) }
	for i := 0; i < keys; i++ {
		if err := nodes[i%len(nodes)].Put(ctx, keyAt(i), []byte(keyAt(i))); err != nil {
			t.Fatalf("put %s: %v", keyAt(i), err)
		}
	}
	stabilizeAll(t, nodes, 2)

	walks := resolves(t, "walk", nodes...)
	for _, nd := range nodes {
		peers := map[string]bool{}
		for i := 0; i < keys; i++ {
			set := replicaSetOf(nodes, keyAt(i), factor)
			if slices.Contains(set, nd) {
				for _, m := range set {
					peers[m.Addr()] = true
				}
			}
		}
		delete(peers, nd.Addr())
		before := rpcsByType(t, nd)
		if pulled, pushed, dropped, err := nd.ReplicaAntiEntropyOnce(); err != nil || pulled+pushed+dropped != 0 {
			t.Fatalf("%s: idle round moved %d/%d/%d items, err %v", nd.Addr(), pulled, pushed, dropped, err)
		}
		want := map[string]float64{"get_neighbors": factor - 1, "digest": float64(len(peers))}
		if got := rpcsSince(t, before, nd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: anti-entropy round cost %v, want %v", nd.Addr(), got, want)
		}
	}

	// remote counts the members of key i's replica set, the first `polled`
	// of them, that are not the coordinator.
	remote := func(i int, coordinator *Node, polled int) (count float64) {
		for _, m := range replicaSetOf(nodes, keyAt(i), factor)[:polled] {
			if m != coordinator {
				count++
			}
		}
		return count
	}
	before := rpcsByType(t, nodes...)
	want := map[string]float64{}
	for i := 0; i < keys; i++ {
		from := nodes[(i+3)%len(nodes)]
		v, err := from.Get(ctx, keyAt(i))
		if err != nil || string(v) != keyAt(i) {
			t.Fatalf("get %s = %q, %v", keyAt(i), v, err)
		}
		want["store_get"] += remote(i, from, factor/2+1)
	}
	if got := rpcsSince(t, before, nodes...); !reflect.DeepEqual(got, want) || want["store_get"] >= 2*keys {
		t.Errorf("%d gets cost %v, want %v (under %d: some coordinators are members)", keys, got, want, 2*keys)
	}
	before = rpcsByType(t, nodes...)
	want = map[string]float64{}
	for i := 0; i < keys; i++ {
		from := nodes[(i+5)%len(nodes)]
		if err := from.Put(ctx, keyAt(i), []byte("again")); err != nil {
			t.Fatalf("put %s: %v", keyAt(i), err)
		}
		want["store_put"] += remote(i, from, factor)
	}
	if got := rpcsSince(t, before, nodes...); !reflect.DeepEqual(got, want) {
		t.Errorf("%d puts cost %v, want %v", keys, got, want)
	}
	if got := resolves(t, "walk", nodes...); got != walks {
		t.Errorf("replica_resolves_total{path=walk} moved by %v over idle rounds and fresh-table ops", got-walks)
	}
	if resolves(t, "local", nodes...) == 0 {
		t.Error("replica_resolves_total{path=local} never moved")
	}
}

// TestAntiEntropyRepairsPlantedDivergence: between two rounds one replica
// loses its copy of one key, as if the replicate that carried it never
// landed. The next round restores it, leaving every key's replica set
// holding byte-identical items, and the round after that is an idle round
// again: the predecessor chain's get_neighbors and one digest per replica
// peer, no sync_pull and no replicate.
func TestAntiEntropyRepairsPlantedDivergence(t *testing.T) {
	const factor, keys = 3, 48
	ctx := context.Background()
	nodes := replicaCluster(t, NewDirectNet(), 8, factor, RouteOneHop)
	keyAt := func(i int) string { return "plant-" + strconv.Itoa(i) }
	for i := 0; i < keys; i++ {
		if err := nodes[i%len(nodes)].Put(ctx, keyAt(i), []byte(keyAt(i))); err != nil {
			t.Fatalf("put %s: %v", keyAt(i), err)
		}
	}
	stabilizeAll(t, nodes, 2)
	round := func() map[string]float64 {
		t.Helper()
		before := rpcsByType(t, nodes...)
		for _, nd := range nodes {
			if _, _, _, err := nd.ReplicaAntiEntropyOnce(); err != nil {
				t.Fatalf("%s: %v", nd.Addr(), err)
			}
		}
		return rpcsSince(t, before, nodes...)
	}
	identical := func() {
		t.Helper()
		for i := 0; i < keys; i++ {
			set := replicaSetOf(nodes, keyAt(i), factor)
			want, _ := set[0].store.Get(keyAt(i))
			for _, nd := range set {
				if got, ok := nd.store.Get(keyAt(i)); !ok || !reflect.DeepEqual(got, want) {
					t.Errorf("%s on %s = %+v (%v), owner holds %+v", keyAt(i), nd.Addr(), got, ok, want)
				}
			}
			if got := copiesOf(nodes, keyAt(i)); got != factor {
				t.Errorf("%s has %d copies, want %d", keyAt(i), got, factor)
			}
		}
	}
	idle := round()
	if len(idle) != 2 || idle["get_neighbors"] == 0 || idle["digest"] == 0 {
		t.Fatalf("a settled cluster's round cost %v, want get_neighbors and digests only", idle)
	}
	identical()

	planted := replicaSetOf(nodes, keyAt(7), factor)[1]
	planted.store.Drop(keyAt(7))
	if got := round(); got["sync_pull"] == 0 {
		t.Errorf("the round after the plant pulled nothing: %v", got)
	}
	identical()
	if got := round(); !reflect.DeepEqual(got, idle) {
		t.Errorf("the round after the repair cost %v, an idle round %v", got, idle)
	}
}

// ownedBy returns count keys named prefix-<i> whose identifiers fall in
// (after, owner].
func ownedBy(prefix string, after, owner id.ID, count int) []string {
	var keys []string
	for i := 0; len(keys) < count; i++ {
		key := prefix + "-" + strconv.Itoa(i)
		if id.InOpenClosed(LiveKeyID(key), after, owner) {
			keys = append(keys, key)
		}
	}
	return keys
}

// predOf returns the node preceding target's identifier among nodes.
func predOf(nodes []*Node, target id.ID) *Node {
	ring := byIDOrder(nodes)
	pred := ring[len(ring)-1]
	for _, nd := range ring {
		if nd.ID().Less(target) {
			pred = nd
		}
	}
	return pred
}

// TestStaleOwnerHintFallsBack: a node joins and takes over part of its
// successor's arc; the rings have healed but no gossip has run, so every
// other node's one-hop table still names the old owner. A quorum read or
// write of a key in that arc is refused by the old owner on the operation
// itself, counted as a stale table answer once, and sent again to the
// owner a walk names, whose answer names the replica set: the stale hint
// costs one request, and nobody is asked it twice. Once maintenance has
// run, every key sits on exactly Factor nodes.
func TestStaleOwnerHintFallsBack(t *testing.T) {
	const factor = 3
	ctx := context.Background()
	dn := NewDirectNet()
	nodes := replicaCluster(t, dn, 8, factor, RouteOneHop)
	joinerID := NodeID("joiner")
	keys := ownedBy("stale", predOf(nodes, joinerID).ID(), joinerID, 4)
	for i, key := range keys {
		if err := nodes[i].Put(ctx, key, []byte("v1-"+key)); err != nil {
			t.Fatal(err)
		}
	}
	oldOwner := trueOwner(nodes, joinerID)

	joiner := startOneRing(t, dn, "joiner", replicaTweak(factor, RouteOneHop))
	if err := joiner.Join("n0"); err != nil {
		t.Fatal(err)
	}
	all := append(append([]*Node(nil), nodes...), joiner)
	stabilizeLayers(t, all) // rings heal; no gossip, no anti-entropy
	if got := trueOwner(all, LiveKeyID(keys[0])); got != joiner {
		t.Fatalf("%s is owned by %s, want the joiner", keys[0], got.Addr())
	}

	var readers []*Node
	for _, nd := range nodes {
		if nd != oldOwner && len(readers) < 2 {
			readers = append(readers, nd)
		}
	}
	reader, writer := readers[0], readers[1]
	for _, nd := range readers {
		if hint, _ := nd.routes.Owner(1, "", [20]byte(LiveKeyID(keys[0]))); hint.Addr != oldOwner.Addr() {
			t.Fatalf("%s's table names %s for the joiner's arc, want the old owner %s", nd.Addr(), hint.Addr, oldOwner.Addr())
		}
	}
	stale := counterValue(t, reader, "onehop_stale_total")
	local, walks := resolves(t, "local", reader), resolves(t, "walk", reader)
	sent := rpcsByType(t, reader)
	if v, err := reader.Get(ctx, keys[0]); err != nil || string(v) != "v1-"+keys[0] {
		t.Fatalf("get through a stale table = %q, %v", v, err)
	}
	if got := counterValue(t, reader, "onehop_stale_total") - stale; got != 1 {
		t.Errorf("the old owner's refusal counted %v stale table answers, want 1", got)
	}
	if gotLocal, gotWalk := resolves(t, "local", reader)-local, resolves(t, "walk", reader)-walks; gotLocal != 1 || gotWalk != 0 {
		t.Errorf("the refused read resolved its set %v times locally and %v times over the network, want 1 and 0", gotLocal, gotWalk)
	}
	// The refused store_get, a walk to the joiner, the store_get the joiner
	// answers, the second member's store_get and the read-repair put.
	want := map[string]float64{"find_closest": 2, "store_get": 3, "store_put": 1}
	if got := rpcsSince(t, sent, reader); !reflect.DeepEqual(got, want) {
		t.Errorf("the read through a stale table sent %v, want %v", got, want)
	}
	stale = counterValue(t, writer, "onehop_stale_total")
	if err := writer.Put(ctx, keys[1], []byte("v2")); err != nil {
		t.Fatalf("put through a stale table: %v", err)
	}
	if got := counterValue(t, writer, "onehop_stale_total") - stale; got != 1 {
		t.Errorf("the old owner's refusal of the write's put counted %v stale table answers, want 1", got)
	}
	if v, err := reader.Get(ctx, keys[1]); err != nil || string(v) != "v2" {
		t.Fatalf("get after the put = %q, %v", v, err)
	}

	stabilizeAll(t, all, 6)
	for i, key := range keys {
		if got := copiesOf(all, key); got != factor {
			t.Errorf("%s has %d copies after maintenance, want %d", key, got, factor)
		}
		want := "v1-" + key
		if i == 1 {
			want = "v2"
		}
		if v, ok := joiner.GetLocal(key); !ok || string(v) != want {
			t.Errorf("the joiner holds %q (%v) for %s, want %q", v, ok, key, want)
		}
	}
}

// TestUnvouchedStretchFallsBack: when the predecessor chain cannot be
// verified — the predecessor died since the last stabilization round, a
// node joined behind it and the links have not settled, or the recorded
// predecessor is simply not the node's predecessor — the anti-entropy
// round reports no stretch and resolves every key over the network. It
// drops nothing, and the maintenance that follows leaves every key on
// exactly Factor nodes.
func TestUnvouchedStretchFallsBack(t *testing.T) {
	const factor, keys = 3, 48
	ctx := context.Background()
	keyAt := func(i int) string { return "flux-" + strconv.Itoa(i) }
	setup := func(t *testing.T) (*DirectNet, []*Node) {
		dn := NewDirectNet()
		nodes := replicaCluster(t, dn, 8, factor, RouteOneHop)
		for i := 0; i < keys; i++ {
			if err := nodes[i%len(nodes)].Put(ctx, keyAt(i), []byte(keyAt(i))); err != nil {
				t.Fatal(err)
			}
		}
		stabilizeAll(t, nodes, 2)
		return dn, nodes
	}
	// fallsBack runs one anti-entropy round on nd and checks it was a
	// network-resolved one that destroyed nothing.
	fallsBack := func(t *testing.T, nd *Node) {
		t.Helper()
		if _, _, ok := nd.replicaNeighbors(ctx); ok {
			t.Fatal("the stretch was vouched for")
		}
		held := nd.Snapshot().Keys
		local, walks := resolves(t, "local", nd), resolves(t, "walk", nd)
		_, _, dropped, _ := nd.ReplicaAntiEntropyOnce()
		if dropped != 0 || !slices.Equal(nd.Snapshot().Keys, held) {
			t.Errorf("the round dropped %d keys: held %v, now %v", dropped, held, nd.Snapshot().Keys)
		}
		if got := resolves(t, "local", nd) - local; got != 0 {
			t.Errorf("%v sets computed from a stretch nobody vouched for", got)
		}
		if got := resolves(t, "walk", nd) - walks; got < float64(len(held)) {
			t.Errorf("%v sets resolved over the network, want one per held key (%d)", got, len(held))
		}
	}
	settled := func(t *testing.T, live []*Node) {
		t.Helper()
		stabilizeAll(t, live, 8)
		for i := 0; i < keys; i++ {
			if got := copiesOf(live, keyAt(i)); got != factor {
				t.Errorf("%s has %d copies after maintenance, want %d", keyAt(i), got, factor)
			}
			for _, nd := range replicaSetOf(live, keyAt(i), factor) {
				if v, ok := nd.GetLocal(keyAt(i)); !ok || !bytes.Equal(v, []byte(keyAt(i))) {
					t.Errorf("%s on %s = %q (%v)", keyAt(i), nd.Addr(), v, ok)
				}
			}
		}
	}

	t.Run("predecessor died", func(t *testing.T) {
		_, nodes := setup(t)
		ring := byIDOrder(nodes)
		_ = ring[2].Close()
		fallsBack(t, ring[3])
		settled(t, without(nodes, ring[2]))
	})
	t.Run("node joined behind the predecessor", func(t *testing.T) {
		dn, nodes := setup(t)
		ring := byIDOrder(nodes)
		joiner := startOneRing(t, dn, "joiner", replicaTweak(factor, RouteOneHop))
		if err := joiner.Join("n0"); err != nil {
			t.Fatal(err)
		}
		// The joiner's successor adopted it on the join's notify; nobody
		// has told the joiner its own predecessor yet. Two positions up,
		// the chain runs into that gap.
		succ := trueOwner(nodes, joiner.ID())
		at := slices.Index(ring, succ)
		fallsBack(t, ring[(at+1)%len(ring)])
		settled(t, append(nodes, joiner))
	})
	t.Run("recorded predecessor is not the predecessor", func(t *testing.T) {
		_, nodes := setup(t)
		ring := byIDOrder(nodes)
		nd := ring[3]
		nd.mu.Lock()
		nd.layers[0].pred = ring[1].Self()
		nd.mu.Unlock()
		fallsBack(t, nd)
		settled(t, nodes)
	})
}

// TestFarCoordinatorDoesNotGuessReplicaSet: the owner of a key dies
// silently and nothing has stabilised, so every walk still ends at it. A
// coordinator three ring positions past it has no business guessing the
// trailing members from its own successor list — that names another
// region of the ring, and a write acknowledged there is invisible to
// every reader. The write fails, or lands only where the dead owner's
// successors are.
func TestFarCoordinatorDoesNotGuessReplicaSet(t *testing.T) {
	const factor = 3
	ctx := context.Background()
	nodes := replicaCluster(t, NewDirectNet(), 8, factor, RouteOneHop)
	ring := byIDOrder(nodes)
	owner, coord := ring[2], ring[5]
	key := ownedBy("far", ring[1].ID(), owner.ID(), 1)[0]
	_ = owner.Close()

	err := coord.Put(ctx, key, []byte("v"))
	members := []string{ring[3].Addr(), ring[4].Addr()}
	for _, nd := range without(nodes, owner) {
		if _, ok := nd.GetLocal(key); ok && !slices.Contains(members, nd.Addr()) {
			t.Errorf("put (err=%v) left a copy on %s, which is not one of the dead owner's successors %v", err, nd.Addr(), members)
		}
	}
	if err == nil && copiesOf(without(nodes, owner), key) < 2 {
		t.Error("put acknowledged without a write quorum of replicas")
	}
}

// TestDeadLandmarkKeepsAntiEntropyCadence: the landmark "lm" is an address
// nobody listens on, so every round's merge scan meets the same dead peer.
// That is not news after the first time: eight rounds at AntiEntropyEvery 4
// run each node's anti-entropy twice, not eight times. A member's death is
// news — the round that confirms it runs anti-entropy at once, whatever
// the cadence says.
func TestDeadLandmarkKeepsAntiEntropyCadence(t *testing.T) {
	const factor, keys, every = 3, 32, 4
	ctx := context.Background()
	names := []string{"n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7"}
	nodes := oneRingCluster(t, NewDirectNet(), names, replicaTweak(factor, RouteOneHop),
		func(cfg *Config) { cfg.AntiEntropyEvery = every })
	for i := 0; i < keys; i++ {
		if err := nodes[i%len(nodes)].Put(ctx, "cadence-"+strconv.Itoa(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	stabilizeAll(t, nodes, 2*every)
	digests := func(nd *Node) float64 { return rpcsByType(t, nd)["digest"] }
	// An idle round sends no digest (its peers' folds matched on the
	// liveness requests before it), so rounds are counted as such.
	rounds := func(nd *Node) float64 { return counterValue(t, nd, "antientropy_rounds_total") }
	before := map[*Node]float64{}
	recent := map[*Node]bool{} // ran anti-entropy in the last every-1 rounds: not due next round
	for _, nd := range nodes {
		before[nd] = rounds(nd)
	}
	for round := 1; round <= 2*every; round++ {
		for _, nd := range nodes {
			ran := rounds(nd)
			if err := nd.StabilizeOnce(); err != nil {
				t.Fatal(err)
			}
			if round > every+1 && rounds(nd) != ran {
				recent[nd] = true
			}
		}
	}
	for _, nd := range nodes {
		if got := rounds(nd) - before[nd]; got != 2 {
			t.Errorf("%s: %v anti-entropy rounds in %d rounds at cadence %d, want 2", nd.Addr(), got, 2*every, every)
		}
	}

	// A lookup that runs into the dead member evicts it — a reference goes, a
	// tombstone is stamped — and the node's next round does not wait.
	ring := byIDOrder(nodes)
	at := slices.IndexFunc(ring, func(nd *Node) bool { return recent[nd] })
	if at < 0 {
		t.Fatalf("no node ran anti-entropy in the last %d rounds", every-1)
	}
	witness, victim := ring[at], ring[(at+3)%len(ring)] // not neighbours: the lookup has to ask the victim itself
	victim.Close()
	_, _ = witness.Lookup(ctx, victim.ID())
	if succ, _, _ := layerSnapshot(witness, 1); slices.Contains(succ, victim.Self()) {
		t.Fatalf("%s still lists the dead %s after a lookup ran into it", witness.Addr(), victim.Addr())
	}
	sent := digests(witness)
	if err := witness.StabilizeOnce(); err != nil {
		t.Fatal(err)
	}
	if digests(witness) == sent {
		t.Errorf("%s evicted a dead member and its next round ran no anti-entropy", witness.Addr())
	}
}

// TestStabilizationDeathForcesAntiEntropy: a death that stabilization
// itself confirms — the successor that does not answer get_neighbors, the
// predecessor that fails its ping — is news like an eviction is. No walk
// ran into the dead node and nobody was told to evict it (the witness is
// the ring's one landmark, so its rounds walk from nobody), yet the round
// that drops the reference runs anti-entropy without waiting out
// AntiEntropyEvery, and the rounds after it are back on the cadence: a
// death is news once. One ring at depth 1 in classic mode, so neither a
// lower-ring eviction nor a tombstone can be what sets the flag.
func TestStabilizationDeathForcesAntiEntropy(t *testing.T) {
	const factor, keys, every = 3, 32, 4
	ctx := context.Background()
	names := []string{"n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8"}
	nodes := oneRingCluster(t, NewDirectNet(), names, replicaTweak(factor, RouteClassic),
		func(cfg *Config) { cfg.Depth, cfg.Landmarks, cfg.AntiEntropyEvery = 1, names[:1], every })
	for i := 0; i < keys; i++ {
		if err := nodes[i%len(nodes)].Put(ctx, "death-"+strconv.Itoa(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	witness := nodes[0]
	digests := func() float64 { return rpcsByType(t, witness)["digest"] }
	tick := func() int {
		witness.mu.Lock()
		defer witness.mu.Unlock()
		return witness.aeTick
	}
	for _, tc := range []struct {
		name   string
		victim func() wire.Peer
	}{
		{"successor", func() wire.Peer { succ, _, _ := layerSnapshot(witness, 1); return succ[0] }},
		{"predecessor", func() wire.Peer { _, pred, _ := layerSnapshot(witness, 1); return pred }},
	} {
		// Settle, and stop the round after the witness's anti-entropy round:
		// its next is due every-1 rounds from here.
		stabilizeAll(t, nodes, 2*every)
		for tick() != 1 {
			stabilizeAll(t, nodes, 1)
		}
		dead := tc.victim()
		at := slices.IndexFunc(nodes, func(nd *Node) bool { return nd.Addr() == dead.Addr })
		nodes[at].Close()
		nodes = slices.Delete(nodes, at, at+1)

		sent := digests()
		if err := witness.StabilizeOnce(); err != nil {
			t.Fatal(err)
		}
		if succ, pred, _ := layerSnapshot(witness, 1); slices.Contains(succ, dead) || pred == dead {
			t.Fatalf("%s: %s still refers to the dead %s after its round", tc.name, witness.Addr(), dead.Addr)
		}
		if digests() == sent {
			t.Errorf("%s: stabilization dropped the dead %s and the round ran no anti-entropy", tc.name, dead.Addr)
		}
		// The forced round may earn one more: without a predecessor its
		// replica sets are resolved by lookups, and a lookup that runs into
		// the dead node evicts it. After that the cadence is back.
		if err := witness.StabilizeOnce(); err != nil {
			t.Fatal(err)
		}
		sent = digests()
		for round := 0; round < every-2; round++ {
			if err := witness.StabilizeOnce(); err != nil {
				t.Fatal(err)
			}
		}
		if got := digests() - sent; got != 0 {
			t.Errorf("%s: %v digests in rounds 3..%d after the death, want 0: a death is news once", tc.name, got, every)
		}
	}
}

// TestReadValueIsCallersOwn: the value Get returns is the caller's to
// write over. A store read hands the handler the stored bytes themselves
// (no writer changes a stored value in place), so every way back to the
// caller copies them once: call's in-process path for the owner's own
// answer, the codec for one that crossed the direct net or a MemNet
// session. Overwriting what Get returned must change neither a second Get
// nor any node's snapshot.
func TestReadValueIsCallersOwn(t *testing.T) {
	for _, net := range []struct {
		name string
		dn   func() *DirectNet
	}{{"direct", NewDirectNet}, {"sessions", sessionsNet}} {
		t.Run(net.name, func(t *testing.T) {
			ctx := context.Background()
			nodes := replicaCluster(t, net.dn(), 4, 3, RouteOneHop)
			const key = "callers-own"
			want := []byte("the stored value")
			if err := nodes[0].Put(ctx, key, want); err != nil {
				t.Fatal(err)
			}
			set := replicaSetOf(nodes, key, 3)
			outsider := nodes[slices.IndexFunc(nodes, func(nd *Node) bool { return !slices.Contains(set, nd) })]
			for _, reader := range []struct {
				how string
				nd  *Node
			}{{"self-owned", set[0]}, {"remote", outsider}} {
				v, err := reader.nd.Get(ctx, key)
				if err != nil || !bytes.Equal(v, want) {
					t.Fatalf("%s get = %q, %v", reader.how, v, err)
				}
				for i := range v {
					v[i] = 'x'
				}
				if again, err := reader.nd.Get(ctx, key); err != nil || !bytes.Equal(again, want) {
					t.Errorf("%s get after overwriting the first answer = %q, %v", reader.how, again, err)
				}
				for _, nd := range nodes {
					for _, it := range nd.Snapshot().Items {
						if it.Key == key && !bytes.Equal(it.Value, want) {
							t.Errorf("%s get: overwriting its answer changed %s's copy to %q", reader.how, nd.Addr(), it.Value)
						}
					}
				}
			}
		})
	}
}

// TestReplicaSuccessorsKeptUntilChanged: an owner names its replica
// successors from a slice it keeps while its successor list names the
// same ones, and a reply may hold that slice past the lock, so a change
// must leave every slice already handed out as it was.
func TestReplicaSuccessorsKeptUntilChanged(t *testing.T) {
	nd := startOneRing(t, NewDirectNet(), "a", replicaTweak(3, RouteClassic))
	named := func(succ ...string) []wire.Peer {
		list := make([]wire.Peer, len(succ))
		for i, s := range succ {
			list[i] = peerFor(s)
		}
		nd.mu.Lock()
		defer nd.mu.Unlock()
		nd.layers[0].succ = list
		return nd.replicaSuccessorsLocked()
	}
	addrs := func(ps []wire.Peer) string {
		var out []string
		for _, p := range ps {
			out = append(out, p.Addr)
		}
		return strings.Join(out, " ")
	}
	first := named("b", "a", "b", "c", "d")
	if got := addrs(first); got != "b c" {
		t.Fatalf("replica successors %q, want \"b c\"", got)
	}
	if same := named("b", "c", "d"); &same[0] != &first[0] {
		t.Errorf("an unchanged list named a new slice")
	}
	shorter, other, none := named("b"), named("b", "d"), named("a")
	for _, c := range []struct {
		name string
		got  []wire.Peer
		want string
	}{{"first", first, "b c"}, {"shorter", shorter, "b"}, {"other", other, "b d"}, {"none", none, ""}} {
		if got := addrs(c.got); got != c.want {
			t.Errorf("%s: %q, want %q", c.name, got, c.want)
		}
	}
}
