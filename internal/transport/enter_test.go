package transport

import (
	"context"
	"slices"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/binning"
	"repro/internal/wire"
)

// oneRingCluster starts the named nodes in one lower ring on dn (see
// startOneRing): the first creates the network, the others join through
// it with three full rounds after each join. With the names a..f the
// ring reads, in identifier order, d b c f a e, and the ring's table is
// stored on b.
func oneRingCluster(t *testing.T, dn *DirectNet, names []string, tweaks ...func(*Config)) []*Node {
	t.Helper()
	var nodes []*Node
	for i, name := range names {
		n := startOneRing(t, dn, name, tweaks...)
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
	holder := trueOwner(live, binning.RingID(2, name))
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
	dn := NewDirectNet()
	nodes := oneRingCluster(t, dn, []string{"a", "b", "c", "d"})
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

	again := startOneRing(t, dn, smallest.Addr())
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

// sentCall is one RPC attempt as the WrapCaller seam sees it: what left a
// node for the wire. Layer is the request's, 0 for types that carry none;
// done marks the find_closest a walk ended on, events a route_gossip
// exchange that shipped membership events in either direction. key marks a
// request whose Key is set, found a reply whose Found is.
type sentCall struct {
	from, to   string
	typ        wire.MsgType
	layer      int
	done       bool
	events     bool
	key, found bool
}

// callLog counts RPC attempts at the WrapCaller seam of every node
// configured with its tweak.
type callLog struct {
	mu   sync.Mutex
	sent map[sentCall]int
}

func (l *callLog) tweak(cfg *Config) {
	cfg.WrapCaller = func(self string, inner wire.Caller) wire.Caller {
		return wire.CallerFunc(func(ctx context.Context, addr string, req wire.Request) (wire.Response, error) {
			resp, err := inner.Call(ctx, addr, req)
			l.mu.Lock()
			if l.sent == nil {
				l.sent = map[sentCall]int{}
			}
			l.sent[sentCall{self, addr, req.Type, req.Layer, resp.Done, len(req.Events)+len(resp.Events) > 0, req.Key != [20]byte{}, resp.Found}]++
			l.mu.Unlock()
			return resp, err
		})
	}
}

func (l *callLog) reset() {
	l.mu.Lock()
	clear(l.sent)
	l.mu.Unlock()
}

// count sums the attempts match accepts.
func (l *callLog) count(match func(sentCall) bool) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	total := 0
	for c, k := range l.sent {
		if match(c) {
			total += k
		}
	}
	return total
}

// chordPingsPerLayer is what Chord's own stabilization pings in one layer
// of a converged ring of more than SuccListLen nodes: the predecessor and
// the successor list's tail.
const chordPingsPerLayer = 4

// tablePings is what the node storing tab pings for it in one round: each
// distinct boundary other than itself, so at most four.
func tablePings(tab wire.RingTable, storing string) int {
	distinct := map[string]bool{}
	for _, addr := range boundaryAddrs(tab) {
		if addr != storing {
			distinct[addr] = true
		}
	}
	return len(distinct)
}

// TestOneTableLookupPerRingPerRound: in the steady state one node's round
// reads its ring's table once, at the node it remembers storing it — join,
// merge scan, re-anchor and table re-announce are one consultation —
// writes nothing back, walks the global ring for nothing, leaves the
// boundary pings to the storing node and the ring walk to the boundary
// members, and sends nothing to itself: what a node can answer from its
// own state is not a message.
func TestOneTableLookupPerRingPerRound(t *testing.T) {
	var log callLog
	nodes := oneRingCluster(t, NewDirectNet(), []string{"a", "b", "c", "d", "e", "f"}, log.tweak)
	stabilizeAll(t, nodes, 3)
	tab, holder := storedRingTable(t, nodes)
	walks := clusterCounter(t, nodes, `ring_consults_total{path="walk"}`)
	log.reset()
	stabilizeAll(t, nodes, 1)
	of := func(typ wire.MsgType) func(sentCall) bool {
		return func(c sentCall) bool { return c.typ == typ }
	}
	// Every node but the one storing the table asks for it, once, there.
	if got, want := log.count(of(wire.TGetRingTable)), len(nodes)-1; got != want {
		t.Errorf("get_ring_table sent in one steady-state sweep = %d, want %d", got, want)
	}
	if got := log.count(func(c sentCall) bool { return c.typ == wire.TGetRingTable && c.to != holder.Addr() }); got != 0 {
		t.Errorf("%d get_ring_table sent to a node other than %s, which stores the table", got, holder.Addr())
	}
	if got := log.count(of(wire.TPutRingTable)); got != 0 {
		t.Errorf("put_ring_table sent in one steady-state sweep = %d, want 0", got)
	}
	// The only layer-1 routing steps are the merge scan's, addressed to the
	// landmark (which nobody listens on here): nobody walks the global ring
	// toward the storing node.
	if got := log.count(func(c sentCall) bool { return c.typ == wire.TFindClosest && c.layer == 1 && c.to != "lm" }); got != 0 {
		t.Errorf("%d find_closest steps on the global ring, want 0", got)
	}
	if got := clusterCounter(t, nodes, `ring_consults_total{path="walk"}`); got != walks {
		t.Errorf("ring_consults_total{path=walk} moved by %v in a steady-state sweep", got-walks)
	}
	// The ring is walked by its boundary members only.
	boundaries := boundaryAddrs(tab)
	if got := log.count(func(c sentCall) bool {
		return c.typ == wire.TFindClosest && c.layer == 2 && !slices.Contains(boundaries[:], c.from)
	}); got != 0 {
		t.Errorf("%d lower-ring find_closest steps from nodes that are not boundaries %v", got, boundaries)
	}
	// Pings: Chord's own in both layers, and the storing node's for the table.
	for _, nd := range nodes {
		want := 2 * chordPingsPerLayer
		if nd == holder {
			want += tablePings(tab, holder.Addr())
		}
		if got := log.count(func(c sentCall) bool { return c.typ == wire.TPing && c.from == nd.Addr() }); got != want {
			t.Errorf("%s sent %d pings, want %d", nd.Addr(), got, want)
		}
	}
	if got := log.count(func(c sentCall) bool { return c.from == c.to }); got != 0 {
		t.Errorf("%d calls addressed to their own sender", got)
	}
}

// twoRingCluster starts n nodes "n0".."n<n-1>" on a direct net of their
// own at depth 2, the first two of them the landmarks, placed so that even
// and odd indexes bin into two lower rings; each joins through n0 with
// three full rounds after it. No fingers are built.
func twoRingCluster(t *testing.T, n int, tweaks ...func(*Config)) []*Node {
	t.Helper()
	nodes := startTwoRing(t, NewDirectNet(), n, tweaks...)
	joinTwoRing(t, nodes)
	return nodes
}

// startTwoRing starts twoRingCluster's nodes on dn without joining them.
func startTwoRing(t *testing.T, dn *DirectNet, n int, tweaks ...func(*Config)) []*Node {
	t.Helper()
	var nodes []*Node
	for i := 0; i < n; i++ {
		cfg := Config{
			Depth: 2, Landmarks: []string{"n0", "n1"}, Coord: [2]float64{float64(i%2*1000 + i), 0},
			Retry:   wire.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Microsecond},
			Breaker: wire.BreakerPolicy{Threshold: -1},
		}
		for _, tweak := range tweaks {
			tweak(&cfg)
		}
		nodes = append(nodes, startNode(t, dn, "n"+strconv.Itoa(i), cfg))
	}
	return nodes
}

// joinTwoRing builds the overlay from nodes as twoRingCluster does.
func joinTwoRing(t *testing.T, nodes []*Node) {
	t.Helper()
	for i, nd := range nodes {
		if i == 0 {
			if err := nd.CreateNetwork(); err != nil {
				t.Fatal(err)
			}
		} else if err := nd.Join("n0"); err != nil {
			t.Fatalf("join n%d: %v", i, err)
		}
		stabilizeAll(t, nodes[:i+1], 3)
	}
	stabilizeAll(t, nodes, 3)
}

// TestSteadyRoundBill itemises one steady-state round of a converged
// depth-2 network whose two landmarks are members: sixteen nodes, two
// lower rings of eight. Per node and layer it is Chord's stabilization
// less the notify — one get_neighbors, the predecessor's ping and three
// for the successor list's tail — because every successor's reply names
// the asker its predecessor already, which a notify cannot change. On top
// of that one hinted get_ring_table per member that does not store its
// ring's table, one ring walk per boundary member, one global walk from
// one landmark per node and the storing nodes' pings of their tables'
// boundaries — nothing else, and nothing to itself. No route_gossip is
// sent: every global-ring neighbor was asked by a layer-1 liveness request
// that carried the summary and was answered "same", and no lower-layer
// request carries one.
func TestSteadyRoundBill(t *testing.T) {
	const n = 16
	var log callLog
	nodes := twoRingCluster(t, n, log.tweak, func(cfg *Config) { cfg.RouteMode = RouteOneHop })
	walks := clusterCounter(t, nodes, `ring_consults_total{path="walk"}`)
	hints := clusterCounter(t, nodes, `ring_consults_total{path="hint"}`)
	log.reset()
	stabilizeAll(t, nodes, 1)

	// Who stores which ring's table, and who its boundaries are.
	storing := map[string]*Node{} // ring name -> the node storing its table
	boundary := map[string]bool{} // members that are a boundary of their ring
	pings := map[string]int{}     // storing node -> boundary pings for the tables it stores
	for _, nd := range nodes {
		for _, tab := range nd.Snapshot().Tables {
			storing[tab.Name] = nd
			for _, addr := range boundaryAddrs(tab) {
				boundary[addr] = true
			}
			pings[nd.Addr()] += tablePings(tab, nd.Addr())
		}
	}
	if len(storing) != 2 {
		t.Fatalf("tables stored for rings %v, want two rings", storing)
	}
	for _, nd := range nodes {
		from := nd.Addr()
		sent := func(typ wire.MsgType, layer int, done bool) int {
			return log.count(func(c sentCall) bool {
				return c.from == from && c.typ == typ && c.layer == layer && c.done == done
			})
		}
		for layer := 1; layer <= 2; layer++ {
			if got := sent(wire.TGetNeighbors, layer, false); got != 1 {
				t.Errorf("%s layer %d: %d get_neighbors, want 1", from, layer, got)
			}
			if got := sent(wire.TNotify, layer, false); got != 0 {
				t.Errorf("%s layer %d: %d notify, want 0", from, layer, got)
			}
		}
		liveness := func(c sentCall) bool {
			return c.from == from && c.key && (c.typ == wire.TPing || c.typ == wire.TGetNeighbors)
		}
		if got := log.count(func(c sentCall) bool { return liveness(c) && c.typ == wire.TPing }); got != chordPingsPerLayer {
			t.Errorf("%s: %d pings carried the route summary, want the %d layer-1 ones", from, got, chordPingsPerLayer)
		}
		if got := log.count(func(c sentCall) bool { return liveness(c) && c.typ == wire.TGetNeighbors && c.layer != 1 }); got != 0 {
			t.Errorf("%s: %d lower-layer get_neighbors carried the route summary", from, got)
		}
		if got := log.count(func(c sentCall) bool { return liveness(c) && !c.found }); got != 0 {
			t.Errorf("%s: %d liveness requests with the route summary not answered \"same\"", from, got)
		}
		for _, to := range nd.gossipFanout() {
			if log.count(func(c sentCall) bool { return liveness(c) && c.to == to }) == 0 {
				t.Errorf("%s: global-ring neighbor %s was not asked with the route summary", from, to)
			}
		}
		if got, want := sent(wire.TPing, 0, false), 2*chordPingsPerLayer+pings[from]; got != want {
			t.Errorf("%s: %d pings, want %d (%d of them for the tables it stores)", from, got, want, pings[from])
		}
		wantGet := 1
		if storing[nd.RingNames()[0]] == nd {
			wantGet = 0
		}
		if got := sent(wire.TGetRingTable, 0, false); got != wantGet {
			t.Errorf("%s: %d get_ring_table, want %d", from, got, wantGet)
		}
		// One global walk, from the one landmark the node keeps to (a
		// landmark walks from the other one): it ends on one reply.
		if got := sent(wire.TFindClosest, 1, true); got != 1 {
			t.Errorf("%s: %d global-ring walks completed, want 1", from, got)
		}
		wantRing := 0
		if boundary[from] {
			wantRing = 1
		}
		if got := sent(wire.TFindClosest, 2, true); got != wantRing {
			t.Errorf("%s (boundary: %v): %d lower-ring walks completed, want %d", from, boundary[from], got, wantRing)
		}
		if !boundary[from] {
			if got := sent(wire.TFindClosest, 2, false); got != 0 {
				t.Errorf("%s is no boundary and sent %d lower-ring find_closest", from, got)
			}
		}
		if got := sent(wire.TRouteGossip, 0, false); got != 0 {
			t.Errorf("%s: %d route_gossip probes, want 0 (every global-ring neighbor said \"same\" already)", from, got)
		}
	}
	if got := log.count(func(c sentCall) bool { return c.events }); got != 0 {
		t.Errorf("%d route_gossip exchanges shipped events between converged tables", got)
	}
	accounted := map[wire.MsgType]bool{
		wire.TGetNeighbors: true, wire.TNotify: true, wire.TPing: true,
		wire.TGetRingTable: true, wire.TFindClosest: true, wire.TRouteGossip: true,
	}
	if got := log.count(func(c sentCall) bool { return !accounted[c.typ] }); got != 0 {
		t.Errorf("%d requests of other types in a steady-state round (no data)", got)
	}
	if got := log.count(func(c sentCall) bool { return c.from == c.to }); got != 0 {
		t.Errorf("%d calls addressed to their own sender", got)
	}
	if got := clusterCounter(t, nodes, `ring_consults_total{path="walk"}`); got != walks {
		t.Errorf("ring_consults_total{path=walk} moved by %v in a steady-state round", got-walks)
	}
	if got := clusterCounter(t, nodes, `ring_consults_total{path="hint"}`) - hints; got != n {
		t.Errorf("ring_consults_total{path=hint} moved by %v, want %d", got, n)
	}
}

// TestRingOutlivesItsBoundaries: the ring's smallest and largest members
// die and a node joins before any maintenance round has run. It enters
// through a surviving boundary, and the table it writes back has retired
// the dead ones — a joiner prunes like a round does.
func TestRingOutlivesItsBoundaries(t *testing.T) {
	dn := NewDirectNet()
	nodes := oneRingCluster(t, dn, []string{"a", "b", "c", "d", "e", "f"})
	ring := byIDOrder(nodes)
	smallest, largest := ring[0], ring[len(ring)-1]
	survivors := without(nodes, smallest, largest)
	smallest.Close()
	largest.Close()

	joiner := startOneRing(t, dn, "j1") // between c and f: its successor is alive
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
	nodes := oneRingCluster(t, NewDirectNet(), []string{"a", "b", "c", "d", "e", "f"})
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
