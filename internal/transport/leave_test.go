package transport

import (
	"context"
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/id"
)

func TestGracefulLeaveHandsOverData(t *testing.T) {
	nodes := builtCluster(t, 8)
	// Store data whose owner we will evict.
	for i := 0; i < 12; i++ {
		if err := nodes[i%len(nodes)].Put(context.Background(), fmt.Sprintf("doc-%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	victim := nodes[5]
	if err := victim.Leave(); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	alive := append(append([]*Node{}, nodes[:5]...), nodes[6:]...)
	// The handover should leave the ring consistent without stabilization,
	// but run one round to refresh successor lists.
	stabilizeAll(t, alive, 2)
	for _, nd := range alive {
		if err := nd.BuildAllFingers(); err != nil {
			t.Fatalf("fingers: %v", err)
		}
	}
	// All data still readable, including keys the victim owned.
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("doc-%d", i)
		v, err := alive[i%len(alive)].Get(context.Background(), key)
		if err != nil {
			t.Fatalf("get %s after leave: %v", key, err)
		}
		if string(v) != fmt.Sprintf("v%d", i) {
			t.Errorf("get %s = %q", key, v)
		}
	}
	// Lookups land on the true owner among survivors.
	for trial := 0; trial < 30; trial++ {
		key := id.HashString(fmt.Sprintf("post-leave-%d", trial))
		want := trueOwner(alive, key)
		res, err := alive[trial%len(alive)].Lookup(context.Background(), key)
		if err != nil {
			t.Fatal(err)
		}
		if res.Owner.Addr != want.Addr() {
			t.Fatalf("owner %s, want %s", res.Owner.Addr, want.Addr())
		}
	}
}

func TestLeaveImmediateNeighborConsistency(t *testing.T) {
	nodes := builtCluster(t, 6)
	victim := nodes[2]
	// Identify the victim's global neighbors before departure.
	succ, pred, err := victim.Neighbors(1)
	if err != nil || len(succ) == 0 {
		t.Fatalf("neighbors: %v", err)
	}
	var succNode, predNode *Node
	for _, nd := range nodes {
		if nd.Addr() == succ[0].Addr {
			succNode = nd
		}
		if nd.Addr() == pred.Addr {
			predNode = nd
		}
	}
	if succNode == nil || predNode == nil {
		t.Skip("neighbors not in cluster (unreachable)")
	}
	if leaveErr := victim.Leave(); leaveErr != nil {
		t.Fatal(leaveErr)
	}
	// Immediately after Leave (no stabilization): pred and succ must have
	// been handed to each other.
	s2, _, err := predNode.Neighbors(1)
	if err != nil || len(s2) == 0 {
		t.Fatalf("pred neighbors: %v", err)
	}
	if s2[0].Addr != succNode.Addr() {
		t.Errorf("predecessor's successor is %s, want %s", s2[0].Addr, succNode.Addr())
	}
	_, p2, err := succNode.Neighbors(1)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Addr != predNode.Addr() {
		t.Errorf("successor's predecessor is %s, want %s", p2.Addr, predNode.Addr())
	}
}

func TestLiveDepth3(t *testing.T) {
	// A depth-3 overlay: two coarse clusters, each with two sub-clusters.
	coord := func(i int) [2]float64 {
		base := [2]float64{0, 0}
		if i%2 == 1 {
			base = [2]float64{600, 600}
		}
		if (i/2)%2 == 1 {
			base[0] += 40 // sub-cluster offset: same coarse bin, finer split
		}
		base[1] += float64(i % 5)
		return base
	}
	dn := NewDirectNet()
	var nodes []*Node
	for i := 0; i < 10; i++ {
		cfg := Config{Depth: 3, Coord: coord(i), Landmarks: []string{"n0", "n1"}, CallTimeout: 5 * time.Second}
		nodes = append(nodes, startNode(t, dn, "n"+strconv.Itoa(i), cfg))
	}
	joinTwoRing(t, nodes)
	for _, nd := range nodes {
		if len(nd.RingNames()) != 2 {
			t.Fatalf("depth-3 node should have 2 ring names, got %v", nd.RingNames())
		}
		if err := nd.BuildAllFingers(); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 30; trial++ {
		key := id.HashString(fmt.Sprintf("d3-%d", trial))
		want := trueOwner(nodes, key)
		res, err := nodes[trial%len(nodes)].Lookup(context.Background(), key)
		if err != nil {
			t.Fatal(err)
		}
		if res.Owner.Addr != want.Addr() {
			t.Fatalf("owner %s, want %s", res.Owner.Addr, want.Addr())
		}
		if len(res.LayerHops) != 3 {
			t.Fatal("expected 3 layer-hop buckets")
		}
	}
}

func TestReplicatedGetSurvivesOwnerFailure(t *testing.T) {
	nodes := builtCluster(t, 8)
	key := "replicated-doc"
	if err := nodes[1].Put(context.Background(), key, []byte("precious")); err != nil {
		t.Fatal(err)
	}
	// Find the key's owner and kill it silently (no graceful handoff).
	res, err := nodes[0].Lookup(context.Background(), LiveKeyID(key))
	if err != nil {
		t.Fatal(err)
	}
	var owner *Node
	for _, nd := range nodes {
		if nd.Addr() == res.Owner.Addr {
			owner = nd
		}
	}
	if owner == nil {
		t.Fatal("owner not in cluster")
	}
	_ = owner.Close()
	alive := make([]*Node, 0, len(nodes)-1)
	for _, nd := range nodes {
		if nd != owner {
			alive = append(alive, nd)
		}
	}
	// A couple of stabilization rounds so survivors route around the
	// corpse; replicas on the old owner's successors answer the read.
	stabilizeAll(t, alive, 4)
	for _, nd := range alive {
		if fingerErr := nd.BuildAllFingers(); fingerErr != nil {
			t.Fatal(fingerErr)
		}
	}
	v, err := alive[0].Get(context.Background(), key)
	if err != nil {
		t.Fatalf("replicated read after owner failure: %v", err)
	}
	if string(v) != "precious" {
		t.Errorf("value = %q", v)
	}
}
