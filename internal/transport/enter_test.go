package transport

import (
	"context"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/wire"
)

// oneRingCluster starts the named nodes in one lower ring on mem (see
// startOneRing): the first creates the network, the others join through
// it with three full rounds after each join. With the names a..f the
// ring reads, in identifier order, d b c f a e, and the ring's table is
// stored on b.
func oneRingCluster(t *testing.T, mem *wire.MemNet, names []string, tweaks ...func(*Config)) []*Node {
	t.Helper()
	var nodes []*Node
	for i, name := range names {
		n := startOneRing(t, mem, name, tweaks...)
		if i == 0 {
			if err := n.CreateNetwork(); err != nil {
				t.Fatal(err)
			}
		} else if err := n.Join(names[0]); err != nil {
			t.Fatalf("join %s: %v", name, err)
		}
		nodes = append(nodes, n)
		stabilizeAll(t, nodes, 3)
	}
	return nodes
}

// stabilizeLayers heals both layers of every node the way a deployment's
// rounds would, but without RepairRingTables: whatever happens to a ring
// table here is the entry-point consultation's doing.
func stabilizeLayers(t *testing.T, nodes []*Node) {
	t.Helper()
	for round := 0; round < 3; round++ {
		for _, n := range nodes {
			for layer := 1; layer <= 2; layer++ {
				if err := n.StabilizeLayer(layer); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// storedRingTable returns the layer-2 ring table as stored on the live
// node responsible for its identifier, and that node.
func storedRingTable(t *testing.T, live []*Node) (wire.RingTable, *Node) {
	t.Helper()
	name := live[0].RingNames()[0]
	holder := trueOwner(live, ringID(2, name))
	for _, tab := range holder.Snapshot().Tables {
		if tab.Layer == 2 && tab.Name == name {
			return tab, holder
		}
	}
	t.Fatalf("%s is responsible for ring table 2:%q and does not store it", holder.Addr(), name)
	return wire.RingTable{}, nil
}

func boundaryAddrs(tab wire.RingTable) [4]string {
	return [4]string{tab.Smallest.Addr, tab.SecondSm.Addr, tab.SecondLg.Addr, tab.Largest.Addr}
}

func without(nodes []*Node, gone ...*Node) []*Node {
	var kept []*Node
	for _, n := range nodes {
		if !slices.Contains(gone, n) {
			kept = append(kept, n)
		}
	}
	return kept
}

// TestRestartedBoundaryRejoins: a boundary node that crashed and restarts
// under its old address finds itself in its ring's table — successor
// lists heal without the table being touched when lookups evict the dead
// hop. The join used to ping its own address, get an answer from itself
// and walk the ring through its own not-yet-joined layer ("layer 2 not
// joined"); it takes the next live boundary instead.
func TestRestartedBoundaryRejoins(t *testing.T) {
	mem := wire.NewMemNet()
	nodes := oneRingCluster(t, mem, []string{"a", "b", "c", "d"})
	smallest := byIDOrder(nodes)[0]
	survivors := without(nodes, smallest)
	smallest.Close()
	stabilizeLayers(t, survivors)
	// The rounds above pruned the dead boundary; list it again, as a
	// table no round has visited since the crash still would.
	tab, holder := storedRingTable(t, survivors)
	stale := updateBoundaries(tab, smallest.Self())
	if _, err := survivors[0].call(context.Background(), holder.Addr(), wire.Request{Type: wire.TPutRingTable, Table: stale}); err != nil {
		t.Fatal(err)
	}

	again := startOneRing(t, mem, smallest.Addr())
	if err := again.Join(survivors[0].Addr()); err != nil {
		t.Fatalf("rejoin of a node its ring table still lists: %v", err)
	}
	want := byIDOrder(survivors)[0].Addr()
	if succ, _, _ := layerSnapshot(again, 2); len(succ) != 1 || succ[0].Addr != want {
		t.Errorf("layer-2 successors after the rejoin = %v, want [%s]", succ, want)
	}
	if tab, _ := storedRingTable(t, survivors); tab.Smallest.Addr != again.Addr() {
		t.Errorf("ring table after the rejoin = %v, want %s smallest", boundaryAddrs(tab), again.Addr())
	}
}

// TestOneTableLookupPerRingPerRound: in the steady state one node's round
// reads its ring's table once — join, merge scan, re-anchor and table
// re-announce are one consultation — writes nothing back, and never dials
// itself to learn that it is alive.
func TestOneTableLookupPerRingPerRound(t *testing.T) {
	var mu sync.Mutex
	sent := map[wire.MsgType]int{}
	selfPings := 0
	count := func(cfg *Config) {
		cfg.WrapCaller = func(self string, inner wire.Caller) wire.Caller {
			return wire.CallerFunc(func(ctx context.Context, addr string, req wire.Request) (wire.Response, error) {
				mu.Lock()
				sent[req.Type]++
				if req.Type == wire.TPing && addr == self {
					selfPings++
				}
				mu.Unlock()
				return inner.Call(ctx, addr, req)
			})
		}
	}
	nodes := oneRingCluster(t, wire.NewMemNet(), []string{"a", "b", "c", "d", "e", "f"}, count)
	stabilizeAll(t, nodes, 3)
	mu.Lock()
	clear(sent)
	selfPings = 0
	mu.Unlock()
	stabilizeAll(t, nodes, 1)
	// Every node but the one storing the table asks for it, once.
	if got, want := sent[wire.TGetRingTable], len(nodes)-1; got != want {
		t.Errorf("get_ring_table sent in one steady-state sweep = %d, want %d", got, want)
	}
	if got := sent[wire.TPutRingTable]; got != 0 {
		t.Errorf("put_ring_table sent in one steady-state sweep = %d, want 0", got)
	}
	if selfPings != 0 {
		t.Errorf("%d pings addressed to their own sender", selfPings)
	}
}

// TestRingOutlivesItsBoundaries: the ring's smallest and largest members
// die and a node joins before any maintenance round has run. It enters
// through a surviving boundary, and the table it writes back has retired
// the dead ones — a joiner prunes like a round does.
func TestRingOutlivesItsBoundaries(t *testing.T) {
	mem := wire.NewMemNet()
	nodes := oneRingCluster(t, mem, []string{"a", "b", "c", "d", "e", "f"})
	ring := byIDOrder(nodes)
	smallest, largest := ring[0], ring[len(ring)-1]
	survivors := without(nodes, smallest, largest)
	smallest.Close()
	largest.Close()

	joiner := startOneRing(t, mem, "j1") // between c and f: its successor is alive
	if err := joiner.Join("a"); err != nil {
		t.Fatalf("join into a ring whose extremes died: %v", err)
	}
	live := map[string]bool{}
	for _, n := range append(survivors, joiner) {
		live[n.Addr()] = true
	}
	tab, _ := storedRingTable(t, survivors)
	for _, addr := range boundaryAddrs(tab) {
		if !live[addr] {
			t.Errorf("ring table after the join = %v, names dead node %q", boundaryAddrs(tab), addr)
		}
	}
	if succ, _, _ := layerSnapshot(joiner, 2); len(succ) != 1 || succ[0].Addr != "f" {
		t.Errorf("joiner's layer-2 successors = %v, want [f]", succ)
	}
}

// TestMissingRingTableIsRecreated: the node storing a ring's table dies
// and takes the table with it. The members' own rounds — StabilizeLayer
// alone, no RepairRingTables — put it back at the new owner of its
// identifier, so the next joiner does not found a second ring of the
// same name.
func TestMissingRingTableIsRecreated(t *testing.T) {
	nodes := oneRingCluster(t, wire.NewMemNet(), []string{"a", "b", "c", "d", "e", "f"})
	_, holder := storedRingTable(t, nodes)
	survivors := without(nodes, holder)
	holder.Close()
	stabilizeLayers(t, survivors)

	tab, _ := storedRingTable(t, survivors)
	ring := byIDOrder(survivors)
	k := len(ring)
	want := [4]string{ring[0].Addr(), ring[1].Addr(), ring[k-2].Addr(), ring[k-1].Addr()}
	if got := boundaryAddrs(tab); got != want {
		t.Errorf("re-created ring table = %v, want the survivors' extremes %v", got, want)
	}
}

// TestUpdateBoundaries: the table keeps the two smallest and two largest
// identifiers it has been shown, whatever order and however often.
func TestUpdateBoundaries(t *testing.T) {
	peers := []wire.Peer{peerFor("a"), peerFor("b"), peerFor("c"), peerFor("d"), peerFor("e"), peerFor("f")}
	sort.Slice(peers, func(i, j int) bool { return peerID(peers[i]).Less(peerID(peers[j])) })
	p := func(i int) wire.Peer { return peers[i] }
	table := func(sm, sm2, lg2, lg wire.Peer) wire.RingTable {
		return wire.RingTable{Layer: 2, Name: "r", Smallest: sm, SecondSm: sm2, SecondLg: lg2, Largest: lg}
	}
	var none wire.Peer
	cases := []struct {
		name string
		in   wire.RingTable
		cand wire.Peer
		want wire.RingTable
	}{
		{"empty table", table(none, none, none, none), p(2), table(p(2), p(2), p(2), p(2))},
		{"one peer, larger candidate", table(p(1), p(1), p(1), p(1)), p(3), table(p(1), p(3), p(1), p(3))},
		{"candidate already the only member", table(p(1), p(1), p(1), p(1)), p(1), table(p(1), p(1), p(1), p(1))},
		{"two peers, candidate between", table(p(0), p(4), p(0), p(4)), p(2), table(p(0), p(2), p(2), p(4))},
		{"three peers, new smallest", table(p(1), p(2), p(2), p(4)), p(0), table(p(0), p(1), p(2), p(4))},
		{"four peers, new largest", table(p(0), p(1), p(3), p(4)), p(5), table(p(0), p(1), p(4), p(5))},
		{"four peers, interior candidate changes nothing", table(p(0), p(1), p(4), p(5)), p(2), table(p(0), p(1), p(4), p(5))},
		{"self already a boundary", table(p(0), p(1), p(4), p(5)), p(4), table(p(0), p(1), p(4), p(5))},
		{"pruned slots are refilled", table(none, p(1), p(4), none), p(0), table(p(0), p(1), p(1), p(4))},
		{"duplicates across slots", table(p(3), p(3), none, p(3)), p(3), table(p(3), p(3), p(3), p(3))},
	}
	for _, c := range cases {
		if got := updateBoundaries(c.in, c.cand); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, boundaryAddrs(got), boundaryAddrs(c.want))
		}
	}
}
