package transport

import (
	"context"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/internal/replica"
	"repro/internal/wire"
)

const foldFactor, foldKeys = 3, 48

func foldKey(i int) string { return "fold-" + strconv.Itoa(i) }

// foldCluster is eight nodes in one ring (Factor 3, majority quorums, the
// given route mode, every RPC logged) holding foldKeys keys, settled with
// the data: the rounds that follow are idle ones.
func foldCluster(t *testing.T, mode string, log *callLog) (*DirectNet, []*Node) {
	t.Helper()
	dn := NewDirectNet()
	names := []string{"n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7"}
	nodes := oneRingCluster(t, dn, names, replicaTweak(foldFactor, mode), log.tweak)
	for i := 0; i < foldKeys; i++ {
		if err := nodes[i%len(nodes)].Put(context.Background(), foldKey(i), []byte(foldKey(i))); err != nil {
			t.Fatalf("put %s: %v", foldKey(i), err)
		}
	}
	stabilizeAll(t, nodes, 3)
	return dn, nodes
}

// sentTo returns the distinct addresses from sent typ to, per the log.
func (l *callLog) sentTo(from string, typ wire.MsgType) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var to []string
	for c := range l.sent {
		if c.from == from && c.typ == typ && !slices.Contains(to, c.to) {
			to = append(to, c.to)
		}
	}
	slices.Sort(to)
	return to
}

// replicaPeers is what an anti-entropy round of nd without evidence sends
// a digest to: the other members of the replica sets, among nodes, of the
// keys nd holds and is a member for.
func replicaPeers(nodes []*Node, nd *Node) []string {
	var peers []string
	for _, key := range nd.Snapshot().Keys {
		set := replicaSetOf(nodes, key, foldFactor)
		if !slices.Contains(set, nd) {
			continue
		}
		for _, m := range set {
			if m != nd && !slices.Contains(peers, m.Addr()) {
				peers = append(peers, m.Addr())
			}
		}
	}
	slices.Sort(peers)
	return peers
}

// isSubset reports whether every element of sub is in of.
func isSubset(sub, of []string) bool {
	return !slices.ContainsFunc(sub, func(s string) bool { return !slices.Contains(of, s) })
}

// identicalCopies checks that each key sits on exactly its replica set,
// byte for byte the same item everywhere.
func identicalCopies(t *testing.T, nodes []*Node, keys ...string) {
	t.Helper()
	for _, key := range keys {
		set := replicaSetOf(nodes, key, foldFactor)
		want, _ := set[0].store.Get(key)
		for _, nd := range set {
			if got, ok := nd.store.Get(key); !ok || !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %s = %+v (%v), owner holds %+v", key, nd.Addr(), got, ok, want)
			}
		}
		if got := copiesOf(nodes, key); got != foldFactor {
			t.Errorf("%s has %d copies, want %d", key, got, foldFactor)
		}
	}
}

// TestFoldIdleRound: on a settled cluster with data, in either route mode,
// a round's anti-entropy asks nothing it already knows. The replica folds
// rode the liveness requests, every one was answered "same", and the
// anti-entropy part of the round is one get_neighbors per node — the
// chain's second step; the first was the predecessor check, a
// get_neighbors instead of a ping — and no digest. Nothing is resolved
// by a walk and no ring is consulted by one.
func TestFoldIdleRound(t *testing.T) {
	for _, mode := range []string{RouteClassic, RouteOneHop} {
		t.Run(mode, func(t *testing.T) {
			var log callLog
			_, nodes := foldCluster(t, mode, &log)
			walks := resolves(t, "walk", nodes...)
			consults := clusterCounter(t, nodes, `ring_consults_total{path="walk"}`)
			log.reset()
			for _, nd := range nodes {
				for layer := 1; layer <= 2; layer++ {
					if err := nd.StabilizeLayer(layer); err != nil {
						t.Fatal(err)
					}
				}
				if err := nd.RepairRingTables(); err != nil {
					t.Fatal(err)
				}
				if err := nd.RouteGossipOnce(); err != nil {
					t.Fatal(err)
				}
				before := rpcsByType(t, nd)
				if pulled, pushed, dropped, err := nd.ReplicaAntiEntropyOnce(); err != nil || pulled+pushed+dropped != 0 {
					t.Fatalf("%s: idle round moved %d/%d/%d items, err %v", nd.Addr(), pulled, pushed, dropped, err)
				}
				if got, want := rpcsSince(t, before, nd), map[string]float64{"get_neighbors": foldFactor - 2}; !reflect.DeepEqual(got, want) {
					t.Errorf("%s: the round's anti-entropy cost %v, want %v", nd.Addr(), got, want)
				}
				_, pred, _ := layerSnapshot(nd, 1)
				toPred := func(typ wire.MsgType) int {
					return log.count(func(c sentCall) bool { return c.from == nd.Addr() && c.to == pred.Addr && c.typ == typ && c.layer == 1 })
				}
				if got := toPred(wire.TGetNeighbors); got != 1 || toPred(wire.TPing) != 0 {
					t.Errorf("%s checked its predecessor with %d get_neighbors and %d pings, want 1 and 0",
						nd.Addr(), got, toPred(wire.TPing))
				}
			}
			if got := log.count(func(c sentCall) bool { return c.typ == wire.TDigest }); got != 0 {
				t.Errorf("an idle round sent %d digests, want 0", got)
			}
			if got := resolves(t, "walk", nodes...); got != walks {
				t.Errorf("replica_resolves_total{path=walk} moved by %v in an idle round", got-walks)
			}
			if got := clusterCounter(t, nodes, `ring_consults_total{path="walk"}`); got != consults {
				t.Errorf("ring_consults_total{path=walk} moved by %v in an idle round", got-consults)
			}
			identicalCopies(t, nodes, foldKey(0), foldKey(foldKeys-1))
		})
	}
}

// TestFoldFindsPlantedDivergence: between two rounds one replica of one
// key diverges — it lost the item, it holds an item its set's other
// members lack, or it holds an older version. The next round's folds find
// it: digests go only between the diverged replica and the others, the
// divergence is repaired in that same round, and the round after is idle
// again.
func TestFoldFindsPlantedDivergence(t *testing.T) {
	plants := []struct {
		name  string
		plant func(set []*Node, key string)
	}{
		{"lost item", func(set []*Node, key string) { set[1].store.Drop(key) }},
		{"extra item", func(set []*Node, key string) {
			for _, nd := range []*Node{set[0], set[2]} {
				nd.store.Drop(key)
			}
		}},
		{"older version", func(set []*Node, key string) {
			it, _ := set[0].store.Get(key)
			it.Version, it.Writer, it.Value = it.Version+1, "planter#1", []byte("newer")
			for _, nd := range []*Node{set[0], set[2]} {
				nd.store.Apply(it)
			}
		}},
	}
	for _, tc := range plants {
		t.Run(tc.name, func(t *testing.T) {
			var log callLog
			_, nodes := foldCluster(t, RouteOneHop, &log)
			key := foldKey(7)
			set := replicaSetOf(nodes, key, foldFactor)
			diverged := set[1]
			tc.plant(set, key)
			log.reset()
			stabilizeAll(t, nodes, 1)
			if log.count(func(c sentCall) bool { return c.typ == wire.TDigest }) == 0 {
				t.Fatal("the round after the plant sent no digest")
			}
			if got := log.count(func(c sentCall) bool {
				return c.typ == wire.TDigest && c.from != diverged.Addr() && c.to != diverged.Addr()
			}); got != 0 {
				t.Errorf("%d digests between replicas that agreed", got)
			}
			if log.count(func(c sentCall) bool { return c.typ == wire.TSyncPull || c.typ == wire.TReplicate }) == 0 {
				t.Error("the round repaired nothing")
			}
			identicalCopies(t, nodes, key)
			log.reset()
			stabilizeAll(t, nodes, 1)
			if got := log.count(func(c sentCall) bool { return c.typ == wire.TDigest }); got != 0 {
				t.Errorf("the round after the repair sent %d digests, want 0", got)
			}
		})
	}
}

// TestFoldVoidedByChange: a fold answers for the arc it was taken over and
// for one round, so a round whose replica stretch changed since the last
// — a node joined behind this node's predecessor — and a round after a
// death (a sweep requested) send a digest to every replica peer, whatever
// the liveness replies said. So does a standalone anti-entropy round with
// no liveness exchange before it: the evidence went with the round that
// took it.
func TestFoldVoidedByChange(t *testing.T) {
	t.Run("new predecessor", func(t *testing.T) {
		var log callLog
		dn, nodes := foldCluster(t, RouteOneHop, &log)
		joiner := startOneRing(t, dn, "joiner", replicaTweak(foldFactor, RouteOneHop), log.tweak)
		if err := joiner.Join("n0"); err != nil {
			t.Fatal(err)
		}
		all := append(slices.Clone(nodes), joiner)
		x, behind := trueOwner(nodes, joiner.ID()), predOf(nodes, joiner.ID())
		if err := behind.StabilizeOnce(); err != nil { // adopts the joiner and tells it its predecessor
			t.Fatal(err)
		}
		if _, pred, _ := layerSnapshot(x, 1); pred != joiner.Self() {
			t.Fatalf("%s's predecessor is %s, want the joiner", x.Addr(), pred.Addr)
		}
		want := replicaPeers(all, x)
		log.reset()
		if err := x.StabilizeOnce(); err != nil {
			t.Fatal(err)
		}
		// The ring's rest has not caught up, so a key the stretch no longer
		// places may still resolve to a set naming x: more peers, not fewer.
		if got := log.sentTo(x.Addr(), wire.TDigest); !isSubset(want, got) || !slices.Contains(got, joiner.Addr()) {
			t.Errorf("%s's first round behind a new predecessor digested %v, want every peer %v", x.Addr(), got, want)
		}
	})
	t.Run("sweep", func(t *testing.T) {
		var log callLog
		_, nodes := foldCluster(t, RouteOneHop, &log)
		x := nodes[3]
		want := replicaPeers(nodes, x)
		x.markSweepNeeded()
		log.reset()
		if err := x.StabilizeOnce(); err != nil {
			t.Fatal(err)
		}
		if got := log.sentTo(x.Addr(), wire.TDigest); !slices.Equal(got, want) {
			t.Errorf("a sweep round digested %v, want every peer %v", got, want)
		}
	})
	t.Run("no liveness round", func(t *testing.T) {
		var log callLog
		_, nodes := foldCluster(t, RouteOneHop, &log)
		for _, nd := range nodes {
			want := replicaPeers(nodes, nd)
			log.reset()
			before := rpcsByType(t, nd)
			if _, _, _, err := nd.ReplicaAntiEntropyOnce(); err != nil {
				t.Fatal(err)
			}
			if got := log.sentTo(nd.Addr(), wire.TDigest); !slices.Equal(got, want) {
				t.Errorf("%s: a standalone round digested %v, want every peer %v", nd.Addr(), got, want)
			}
			if got := rpcsSince(t, before, nd)["get_neighbors"]; got != foldFactor-1 {
				t.Errorf("%s: a standalone round walked the chain in %v get_neighbors, want %d", nd.Addr(), got, foldFactor-1)
			}
		}
	})
}

// TestFoldAskedOnlyWhereHeld: a node asks a fold only of peers it would
// send a digest, and a liveness request that asks none carries no more
// than the route summary it carried before folds existed.
func TestFoldAskedOnlyWhereHeld(t *testing.T) {
	var log callLog
	_, nodes := foldCluster(t, RouteClassic, &log)
	for _, nd := range nodes {
		peers := replicaPeers(nodes, nd)
		for _, other := range nodes {
			if other == nd {
				continue
			}
			if asked := nd.co.Fold(other.Addr()) != 0; asked != slices.Contains(peers, other.Addr()) {
				t.Errorf("%s asks %s a fold: %v; it is a replica peer: %v", nd.Addr(), other.Addr(), asked, !asked)
			}
		}
	}
	empty := replica.NewEngine()
	if (&replica.Coordinator{Engine: empty, KeyID: liveKeyBytes}).Fold(nodes[1].Addr()) != 0 {
		t.Error("a coordinator with no placement asked a fold")
	}
}
