package transport

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/id"
	"repro/internal/wire"
)

// What a settled round skips — the global walk to the storing node, the
// ring walk, the boundary pings — each has a fallback that a changed world
// must still reach. These tests change the world and count rounds, not
// time.

// exactSuccessors reports the first member of ring (in identifier order)
// whose layer's successor list is not the next members in order, as far
// as the list length allows ("" when every list is exact).
func exactSuccessors(ring []*Node, layer, listLen int) string {
	for i, nd := range ring {
		var want []string
		for k := 1; k <= listLen && k < len(ring); k++ {
			want = append(want, ring[(i+k)%len(ring)].Addr())
		}
		succ, _, _ := layerSnapshot(nd, layer)
		got := make([]string, len(succ))
		for k, p := range succ {
			got[k] = p.Addr
		}
		if !slices.Equal(got, want) {
			return fmt.Sprintf("%s layer %d: successors %v, want %v", nd.Addr(), layer, got, want)
		}
	}
	return ""
}

// extremes returns the boundary addresses an exact table of ring (in
// identifier order) holds.
func extremes(ring []*Node) [4]string {
	k := len(ring)
	return [4]string{ring[0].Addr(), ring[1].Addr(), ring[k-2].Addr(), ring[k-1].Addr()}
}

// TestStaleTableHintFallsBack: a node joins whose identifier makes it the
// global owner of the ring's id. The members' hinted read is then answered
// by a node that no longer vouches for the table, so they walk the global
// ring again — once or twice, until the old owner's predecessor has
// stabilized — find the re-homed table, and go back to hinted reads of the
// one node that stores it.
func TestStaleTableHintFallsBack(t *testing.T) {
	var log callLog
	mem := wire.NewMemNet()
	nodes := oneRingCluster(t, mem, []string{"a", "b", "c", "d", "e", "f"}, log.tweak)
	stabilizeAll(t, nodes, 3)
	name := nodes[0].RingNames()[0]
	_, holder := storedRingTable(t, nodes)
	before := predOf(nodes, holder.ID())
	var joiner *Node
	for i := 0; joiner == nil; i++ {
		if i == 10000 {
			t.Fatal("no joiner name lands between the table's id and its owner's predecessor")
		}
		addr := "j" + strconv.Itoa(i)
		// Between the owner and its predecessor, at or past the table's id.
		if jid := NodeID(addr); id.Between(jid, before.ID(), holder.ID()) && id.InOpenClosed(ringID(2, name), before.ID(), jid) {
			joiner = startOneRing(t, mem, addr, log.tweak)
		}
	}
	walked := map[*Node]float64{}
	for _, nd := range nodes {
		walked[nd] = counterValue(t, nd, `ring_consults_total{path="walk"}`)
	}
	if err := joiner.Join("a"); err != nil {
		t.Fatal(err)
	}
	all := append(slices.Clone(nodes), joiner)
	stabilizeAll(t, all, 3)

	for _, nd := range nodes {
		if got := counterValue(t, nd, `ring_consults_total{path="walk"}`) - walked[nd]; got < 1 || got > 2 {
			t.Errorf("%s walked the global ring %v times after its hint went stale, want 1 or 2", nd.Addr(), got)
		}
	}
	var stores []string
	for _, nd := range all {
		if len(nd.Snapshot().Tables) > 0 {
			stores = append(stores, nd.Addr())
		}
	}
	if !slices.Equal(stores, []string{joiner.Addr()}) {
		t.Errorf("table stored on %v, want on the new owner %s alone", stores, joiner.Addr())
	}
	if tab, _ := storedRingTable(t, all); boundaryAddrs(tab) != extremes(byIDOrder(all)) {
		t.Errorf("re-homed table = %v, want %v", boundaryAddrs(tab), extremes(byIDOrder(all)))
	}
	walks := clusterCounter(t, all, `ring_consults_total{path="walk"}`)
	log.reset()
	stabilizeAll(t, all, 1)
	if got := clusterCounter(t, all, `ring_consults_total{path="walk"}`); got != walks {
		t.Errorf("ring_consults_total{path=walk} moved by %v once the new owner is the hint", got-walks)
	}
	if got := log.count(func(c sentCall) bool { return c.typ == wire.TGetRingTable && c.to != joiner.Addr() }); got != 0 {
		t.Errorf("%d get_ring_table sent to a node other than the new owner", got)
	}
}

// TestLowerRingPartitionHeals: one ring name, two components, each
// internally healthy and settled — every member's successor is the one its
// last round settled on, and the table it reads has not changed — so the
// members between the boundaries skip the ring walk. The boundary members
// do not: one of them walks into the other component, and stabilization
// carries the merge around the ring within the round bound
// TestChurnReconverges uses, to exact successor lists and exact boundaries.
func TestLowerRingPartitionHeals(t *testing.T) {
	nodes := oneRingCluster(t, wire.NewMemNet(), []string{"a", "b", "c", "d", "e", "f", "g", "h"})
	stabilizeAll(t, nodes, 3)
	ring := byIDOrder(nodes)
	const listLen = 4
	if bad := exactSuccessors(ring, 2, listLen); bad != "" {
		t.Fatalf("before the split: %s", bad)
	}
	for _, component := range [][]*Node{ring[:4], ring[4:]} {
		for i, nd := range component {
			k := len(component)
			nd.mu.Lock()
			ls := nd.layers[1]
			ls.succ = nil
			for step := 1; step < k; step++ {
				ls.succ = append(ls.succ, component[(i+step)%k].Self())
			}
			ls.pred = component[(i+k-1)%k].Self()
			ls.settled = ls.succ[0].Addr
			nd.mu.Unlock()
		}
	}
	const maxRounds = 12
	rounds, bad := 0, exactSuccessors(ring, 2, listLen)
	if bad == "" {
		t.Fatal("the split left the ring whole")
	}
	for ; bad != "" && rounds < maxRounds; rounds++ {
		stabilizeAll(t, nodes, 1)
		bad = exactSuccessors(ring, 2, listLen)
	}
	if bad != "" {
		t.Fatalf("ring not whole %d rounds after the heal: %s", maxRounds, bad)
	}
	t.Logf("two components of four merged in %d rounds", rounds)
	if bad := exactSuccessors(ring, 1, listLen); bad != "" {
		t.Errorf("global ring disturbed: %s", bad)
	}
	if tab, _ := storedRingTable(t, nodes); boundaryAddrs(tab) != extremes(ring) {
		t.Errorf("ring table after the heal = %v, want %v", boundaryAddrs(tab), extremes(ring))
	}
}

// TestStoringNodeAndBoundaryDieTogether: the node storing the ring's table
// and one of the table's boundaries die in the same instant. The members'
// hints name a dead node, so they walk to the new owner of the ring's id
// and re-create the table there from the members that announce themselves:
// the dead boundary is not in it.
func TestStoringNodeAndBoundaryDieTogether(t *testing.T) {
	nodes := oneRingCluster(t, wire.NewMemNet(), []string{"a", "b", "c", "d", "e", "f", "g"})
	stabilizeAll(t, nodes, 3)
	tab, holder := storedRingTable(t, nodes)
	ring := byIDOrder(nodes)
	boundary := ring[len(ring)-1]
	if boundary == holder {
		boundary = ring[0]
	}
	if listed := boundaryAddrs(tab); !slices.Contains(listed[:], boundary.Addr()) {
		t.Fatalf("%s is no boundary of %v", boundary.Addr(), listed)
	}
	survivors := without(nodes, holder, boundary)
	holder.Close()
	boundary.Close()
	stabilizeAll(t, survivors, 3)

	tab, at := storedRingTable(t, survivors)
	if want := extremes(byIDOrder(survivors)); boundaryAddrs(tab) != want {
		t.Errorf("table re-created on %s = %v, want the survivors' extremes %v", at.Addr(), boundaryAddrs(tab), want)
	}
	for _, nd := range survivors {
		if nd != at && len(nd.Snapshot().Tables) > 0 {
			t.Errorf("%s stores a table too; %s owns the ring's id", nd.Addr(), at.Addr())
		}
	}
	if bad := exactSuccessors(byIDOrder(survivors), 2, 4); bad != "" {
		t.Error(bad)
	}
}

// lookupDigest runs the same seeded (origin, key) lookups on a converged
// sixteen-node, two-ring network in the given route mode and folds every
// result — owner, hops, hops per layer — into one number.
func lookupDigest(t *testing.T, mode string) (digest uint64, hops int) {
	t.Helper()
	nodes := twoRingCluster(t, 16, func(cfg *Config) { cfg.RouteMode = mode })
	for _, nd := range nodes {
		if err := nd.BuildAllFingers(); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(26))
	pool := make([]id.ID, 96) // keys repeat, as they do in a warm workload
	for i := range pool {
		pool[i] = id.Rand(rng)
	}
	h := fnv.New64a()
	for i := 0; i < 400; i++ {
		from, key := nodes[rng.Intn(len(nodes))], pool[rng.Intn(len(pool))]
		res, err := from.Lookup(context.Background(), key)
		if err != nil {
			t.Fatalf("%s: lookup %d from %s: %v", mode, i, from.Addr(), err)
		}
		if want := trueOwner(nodes, key).Addr(); res.Owner.Addr != want {
			t.Fatalf("%s: lookup %d from %s found %s, true owner %s", mode, i, from.Addr(), res.Owner.Addr, want)
		}
		fmt.Fprintf(h, "%s %s %d %v\n", from.Addr(), res.Owner.Addr, res.Hops, res.LayerHops)
		hops += res.Hops
	}
	return h.Sum64(), hops
}

// TestLookupsUnchangedBySelfCalls: answering a walk's first step
// in-process removes a message, not a hop. The digests are the parent
// commit's (where the origin sent that step to its own listener), over
// owner, Hops and LayerHops of 400 seeded lookups per route mode.
func TestLookupsUnchangedBySelfCalls(t *testing.T) {
	pinned := map[string]struct {
		digest uint64
		hops   int
	}{
		RouteClassic: {0xa70eb7fa53fc62fb, 1042},
		RouteOneHop:  {0x6a3e2aaa243624c5, 400},
	}
	for _, mode := range []string{RouteClassic, RouteOneHop} {
		digest, hops := lookupDigest(t, mode)
		if want := pinned[mode]; digest != want.digest || hops != want.hops {
			t.Errorf("%s: 400 lookups took %d hops, digest %#x; the parent commit's took %d, digest %#x",
				mode, hops, digest, want.hops, want.digest)
		}
	}
}

// TestSelfCallIsNotAMessage: a request a node addresses to itself is
// answered from its own state. It is counted nowhere a message is counted,
// it still honours the context and still turns a refusal into a
// RemoteError, and the handler gets memory it owns: the caller may reuse
// the value buffer it passed, as it may after a write over the wire.
func TestSelfCallIsNotAMessage(t *testing.T) {
	var log callLog
	a := startOneRing(t, wire.NewMemNet(), "a", log.tweak)
	if err := a.CreateNetwork(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if resp, err := a.call(ctx, "a", wire.Request{Type: wire.TPing}); err != nil || resp.Self != a.Self() {
		t.Fatalf("ping to self = %+v, %v", resp, err)
	}
	value := []byte("first")
	item := wire.StoreItem{Key: "k", Value: value, Version: 1, Writer: "a#1"}
	if resp, err := a.call(ctx, "a", wire.Request{Type: wire.TStorePut, Name: "k", Items: []wire.StoreItem{item}}); err != nil || resp.Applied != 1 {
		t.Fatalf("store_put to self = %+v, %v", resp, err)
	}
	copy(value, "xxxxx")
	if got, _ := a.GetLocal("k"); string(got) != "first" {
		t.Errorf("stored value = %q after the caller reused its buffer, want %q", got, "first")
	}
	if _, err := a.call(ctx, "a", wire.Request{Type: 99}); !wire.IsRemote(err) {
		t.Errorf("unknown request to self = %v, want a RemoteError", err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := a.call(cancelled, "a", wire.Request{Type: wire.TPing}); err == nil || wire.IsRemote(err) {
		t.Errorf("ping to self under a cancelled context = %v, want a transport error", err)
	}
	if got := a.Handled(); got != 0 {
		t.Errorf("Handled() = %d after four self-addressed requests, want 0", got)
	}
	if got := log.count(func(sentCall) bool { return true }); got != 0 {
		t.Errorf("%d RPC attempts reached the caller chain", got)
	}
	if got := rpcsSince(t, nil, a); len(got) != 0 {
		t.Errorf("rpc_requests_total moved: %v", got)
	}
}

// exactOverlay reports the first successor list or predecessor, in either
// layer of a depth-2 overlay, that is not what the members' identifiers
// make it ("" when every one is exact).
func exactOverlay(nodes []*Node, listLen int) string {
	rings := map[string][]*Node{}
	var names []string
	for _, nd := range nodes {
		name := nd.RingNames()[0]
		if rings[name] == nil {
			names = append(names, name)
		}
		rings[name] = append(rings[name], nd)
	}
	check := func(members []*Node, layer int) string {
		ring := byIDOrder(members)
		if bad := exactSuccessors(ring, layer, listLen); bad != "" {
			return bad
		}
		for i, nd := range ring {
			want := ring[(i+len(ring)-1)%len(ring)].Addr()
			if _, pred, _ := layerSnapshot(nd, layer); pred.Addr != want {
				return fmt.Sprintf("%s layer %d: predecessor %q, want %s", nd.Addr(), layer, pred.Addr, want)
			}
		}
		return ""
	}
	if bad := check(nodes, 1); bad != "" {
		return bad
	}
	for _, name := range names {
		if bad := check(rings[name], 2); bad != "" {
			return bad
		}
	}
	return ""
}

// TestNotifyOnlyWhereItCanChange: stabilization notifies its successor only
// when the successor's reply does not name it the predecessor already, the
// one case in which the notify handler can change anything. A converged
// round sends none. A successor that lost its predecessor gets exactly one
// and has it back within the round. A join settles — every list and every
// predecessor exact — in the 3 rounds it took when every round notified.
func TestNotifyOnlyWhereItCanChange(t *testing.T) {
	var log callLog
	nodes := startTwoRing(t, wire.NewMemNet(), 17, log.tweak)
	members, joiner := nodes[:16], nodes[16]
	joinTwoRing(t, members)
	notifies := func() int { return log.count(func(c sentCall) bool { return c.typ == wire.TNotify }) }

	log.reset()
	stabilizeAll(t, members, 1)
	if got := notifies(); got != 0 {
		t.Errorf("converged round: %d notify, want 0", got)
	}

	s := members[5]
	p := predOf(members, s.ID())
	s.mu.Lock()
	s.layers[0].pred = wire.Peer{}
	s.mu.Unlock()
	log.reset()
	stabilizeAll(t, members, 1)
	if got := notifies(); got != 1 {
		t.Errorf("round after %s lost its predecessor: %d notify, want 1", s.Addr(), got)
	}
	if got := log.count(func(c sentCall) bool {
		return c.typ == wire.TNotify && c.from == p.Addr() && c.to == s.Addr() && c.layer == 1
	}); got != 1 {
		t.Errorf("%d layer-1 notify from %s to %s, want 1", got, p.Addr(), s.Addr())
	}
	if _, pred, _ := layerSnapshot(s, 1); pred.Addr != p.Addr() {
		t.Errorf("%s's predecessor after the round = %q, want %s", s.Addr(), pred.Addr, p.Addr())
	}

	if err := joiner.Join("n0"); err != nil {
		t.Fatal(err)
	}
	const notifyAllRounds, maxRounds = 3, 12
	rounds, bad := 0, exactOverlay(nodes, 4)
	for ; bad != "" && rounds < maxRounds; rounds++ {
		stabilizeAll(t, nodes, 1)
		bad = exactOverlay(nodes, 4)
	}
	if bad != "" {
		t.Fatalf("overlay not exact %d rounds after the join: %s", maxRounds, bad)
	}
	if rounds != notifyAllRounds {
		t.Errorf("the join settled in %d rounds, %d when every round notified", rounds, notifyAllRounds)
	}
}
