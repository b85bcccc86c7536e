package transport

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/wire"
)

func peerFor(addr string) wire.Peer {
	return wire.Peer{Addr: addr, ID: [20]byte(NodeID(addr))}
}

// plantPeer installs a peer in every slot of one layer's routing state:
// successor list, predecessor and two finger slots.
func plantPeer(n *Node, layer int, p wire.Peer, fingerSlots ...int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ls := n.layers[layer-1]
	ls.succ = append(ls.succ, p)
	ls.pred = p
	for _, k := range fingerSlots {
		ls.fingers.Set(k, p)
	}
}

func layerSnapshot(n *Node, layer int) (succ []wire.Peer, pred wire.Peer, fingers []wire.Peer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ls := n.layers[layer-1]
	return append([]wire.Peer(nil), ls.succ...), ls.pred, ls.fingers.Expand()
}

// TestEvictPurgesEveryLayer plants a dead peer in the successor list,
// predecessor slot and fingers of both layers of a depth-2 node, then
// sends TEvict per layer and verifies only the dead references vanish.
func TestEvictPurgesEveryLayer(t *testing.T) {
	n, err := Start("127.0.0.1:0", Config{Depth: 2, CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	dead := peerFor("10.9.9.9:1")
	live := peerFor("10.8.8.8:1")
	for layer := 1; layer <= 2; layer++ {
		plantPeer(n, layer, live, 7)
		plantPeer(n, layer, dead, 3, 11)
	}
	for layer := 1; layer <= 2; layer++ {
		resp, err := wireCall(n.Addr(), wire.Request{
			Type: wire.TEvict, Layer: layer, Peer: dead,
		}, 2*time.Second)
		if err != nil || !resp.OK {
			t.Fatalf("evict layer %d: %v (%+v)", layer, err, resp)
		}
	}
	for layer := 1; layer <= 2; layer++ {
		succ, pred, fingers := layerSnapshot(n, layer)
		for _, s := range succ {
			if s.Addr == dead.Addr {
				t.Errorf("layer %d: dead peer still in successor list", layer)
			}
		}
		if len(succ) != 1 || succ[0].Addr != live.Addr {
			t.Errorf("layer %d: successor list = %v, want only the live peer", layer, succ)
		}
		if pred.Addr == dead.Addr {
			t.Errorf("layer %d: dead peer still predecessor", layer)
		}
		if fingers[3].Addr != "" || fingers[11].Addr != "" {
			t.Errorf("layer %d: dead peer still in fingers", layer)
		}
		if fingers[7].Addr != live.Addr {
			t.Errorf("layer %d: live finger was purged too", layer)
		}
	}
}

// TestEvictRejectsInvalidTargets pins the handler's refusal to purge
// nothing, itself, or an out-of-range layer.
func TestEvictRejectsInvalidTargets(t *testing.T) {
	n, err := Start("127.0.0.1:0", Config{Depth: 1, CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	cases := []wire.Request{
		{Type: wire.TEvict, Layer: 1},                              // no target
		{Type: wire.TEvict, Layer: 1, Peer: peerFor(n.Addr())},     // self
		{Type: wire.TEvict, Layer: 5, Peer: peerFor("10.1.1.1:1")}, // bad layer
	}
	for i, req := range cases {
		_, err := wireCall(n.Addr(), req, 2*time.Second)
		if !wire.IsRemote(err) {
			t.Errorf("case %d: want remote rejection, got %v", i, err)
		}
	}
}

// TestEvictAtPurgesRemotePeerAndCounts exercises the client side: evictAt
// must purge the dead reference from the remote node's layer state and
// count the report in evictions_total.
func TestEvictAtPurgesRemotePeerAndCounts(t *testing.T) {
	a, err := Start("127.0.0.1:0", Config{Depth: 1, CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Start("127.0.0.1:0", Config{Depth: 1, CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	dead := peerFor("10.7.7.7:1")
	plantPeer(b, 1, dead, 0)
	a.evictAt(b.Addr(), 1, dead.Addr)
	succ, pred, fingers := layerSnapshot(b, 1)
	if len(succ) != 0 || pred.Addr != "" || fingers[0].Addr != "" {
		t.Errorf("dead peer survived evictAt: succ=%v pred=%v finger=%v", succ, pred, fingers[0])
	}
	var sb strings.Builder
	if _, err := a.Metrics().WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "evictions_total 1") {
		t.Errorf("exposition missing evictions_total 1:\n%s", sb.String())
	}
}

// TestLocalEvictionSkipsSelf guards the local purge against suspicion of
// the node's own address (which would corrupt singleton state).
func TestLocalEvictionSkipsSelf(t *testing.T) {
	n, err := Start("127.0.0.1:0", Config{Depth: 1, CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	self := n.Self()
	plantPeer(n, 1, self, 0)
	n.evictLocal(1, n.Addr())
	succ, pred, fingers := layerSnapshot(n, 1)
	if len(succ) != 1 || pred.Addr != self.Addr || fingers[0].Addr != self.Addr {
		t.Error("evictLocal purged the node's own references")
	}
}

// constProber puts every node at the same distance from every landmark,
// so all of them bin into one lower ring without any landmark process.
type constProber float64

func (p constProber) Latency(context.Context, wire.Caller, string) (float64, error) {
	return float64(p), nil
}

// startOneRing starts a depth-2 node on dn whose constant prober bins it
// into the same lower ring as every other node started this way.
func startOneRing(t *testing.T, dn *DirectNet, addr string, tweaks ...func(*Config)) *Node {
	t.Helper()
	cfg := Config{
		Depth: 2, Landmarks: []string{"lm"}, Prober: constProber(10),
		CallTimeout: 2 * time.Second,
		Retry:       wire.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Microsecond},
		Breaker:     wire.BreakerPolicy{Threshold: -1},
	}
	for _, tweak := range tweaks {
		tweak(&cfg)
	}
	return startNode(t, dn, addr, cfg)
}

// TestEmptiedLowerRingListClimbs pins the reply of a joined node whose
// lower-ring successor list was just purged to nothing: until its next
// stabilization round it answers as the singleton ring it is about to
// become, so a lookup entering that ring climbs to the global ring and a
// joiner adopts the node, instead of both dying on "layer 2 not joined".
func TestEmptiedLowerRingListClimbs(t *testing.T) {
	nodes := oneRingCluster(t, NewDirectNet(), []string{"a", "b"})
	a, b := nodes[0], nodes[1]
	if succ, _, _ := layerSnapshot(a, 2); len(succ) != 1 || succ[0].Addr != "b" {
		t.Fatalf("a's layer-2 successors = %v, want [b]", succ)
	}
	if _, err := a.call(context.Background(), "a", wire.Request{
		Type: wire.TEvict, Layer: 2, Peer: peerFor("b"),
	}); err != nil {
		t.Fatal(err)
	}
	if succ, pred, _ := layerSnapshot(a, 2); len(succ) != 0 || pred.Addr != "" {
		t.Fatalf("evict left succ=%v pred=%v, want both empty", succ, pred)
	}
	res, err := a.Lookup(context.Background(), b.ID())
	if err != nil {
		t.Fatalf("lookup through the emptied ring: %v", err)
	}
	if res.Owner.Addr != "b" {
		t.Errorf("owner = %s, want b", res.Owner.Addr)
	}
	// A joiner the ring table sends to a adopts it as ring successor.
	if succ, _, err := a.walkOwner(context.Background(), "a", 2, NodeID("c")); err != nil || succ.Addr != "a" {
		t.Errorf("join walk via the emptied ring = %v, %v; want a", succ.Addr, err)
	}
	// The global ring is the authority on ownership and never guesses.
	a.evictLocal(1, "b")
	if _, err := a.Lookup(context.Background(), b.ID()); !wire.IsRemote(err) {
		t.Errorf("lookup with an emptied global list = %v, want a remote refusal", err)
	}
}

// TestRejoinBeforeEvictionIsRefused: a crashed node that restarts under
// its old address before its predecessor has stabilized is still listed
// as a member, so the join walk names the joiner itself. Adopting that
// answer left the node its own successor and predecessor — a self-loop
// the rest of the ring routed into; the join is refused and succeeds
// once the stale entry is gone.
func TestRejoinBeforeEvictionIsRefused(t *testing.T) {
	dn := NewDirectNet()
	nodes := oneRingCluster(t, dn, []string{"a", "b", "c"})
	nodes[1].Close()
	early := startOneRing(t, dn, "b")
	if err := early.Join("a"); err == nil {
		succ, pred, _ := layerSnapshot(early, 1)
		t.Fatalf("rejoin before eviction succeeded with successors %v, predecessor %v", succ, pred)
	}
	early.Close()
	stabilizeAll(t, without(nodes, nodes[1]), 3)
	late := startOneRing(t, dn, "b")
	if err := late.Join("a"); err != nil {
		t.Fatalf("rejoin after eviction: %v", err)
	}
	for layer := 1; layer <= 2; layer++ {
		if succ, _, _ := layerSnapshot(late, layer); len(succ) != 1 || succ[0].Addr == "b" {
			t.Errorf("layer %d successors after rejoin = %v, want one other node", layer, succ)
		}
	}
}

// TestClimbedReplyDeadNextHop: the node a lower-ring walk ends at answers
// for the global ring in the same reply, and the hop it names there is
// dead. The answerer stays that hop's supplier, as it would be had the
// origin asked it for the global step itself: the step is retried from
// it, it is told to evict the dead hop once the hop is suspected, and the
// walk goes on from there to the true owner — no restart from the origin.
func TestClimbedReplyDeadNextHop(t *testing.T) {
	type climb struct{ answerer, next string }
	var (
		mu      sync.Mutex
		origin  string
		climbed []climb       // the origin's remote replies that climbed to the global ring
		evicted map[climb]int // TEvict the origin sent: (told, dead)
	)
	wrap := func(cfg *Config) {
		cfg.WrapCaller = func(self string, inner wire.Caller) wire.Caller {
			return wire.CallerFunc(func(ctx context.Context, addr string, req wire.Request) (wire.Response, error) {
				resp, err := inner.Call(ctx, addr, req)
				mu.Lock()
				defer mu.Unlock()
				switch {
				case self != origin:
				case req.Type == wire.TFindClosest && err == nil && resp.Layer == 1 && !resp.Done:
					climbed = append(climbed, climb{addr, resp.Next.Addr})
				case req.Type == wire.TEvict:
					evicted[climb{addr, req.Peer.Addr}]++
				}
				return resp, err
			})
		}
	}
	nodes := twoRingCluster(t, 16, wrap)
	for _, nd := range nodes {
		if err := nd.BuildAllFingers(); err != nil {
			t.Fatal(err)
		}
	}
	from := nodes[2]
	mu.Lock()
	origin, evicted = from.Addr(), map[climb]int{}
	mu.Unlock()
	// Find a key whose lookup gets a climbed reply from a remote node
	// naming a global hop other than the origin.
	var key id.ID
	var c climb
	for trial := 0; c == (climb{}); trial++ {
		if trial == 1000 {
			t.Fatal("no key in 1000 lookups gets a climbed reply naming a remote global hop")
		}
		key = id.HashString(fmt.Sprintf("climbed-%d", trial))
		mu.Lock()
		climbed = climbed[:0]
		mu.Unlock()
		if _, err := from.Lookup(context.Background(), key); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		if len(climbed) > 0 && climbed[0].next != origin {
			c = climbed[0]
		}
		mu.Unlock()
	}
	var dead *Node
	for _, nd := range nodes {
		if nd.Addr() == c.next {
			dead = nd
		}
	}
	dead.Close()
	survivors := without(nodes, dead)
	retries, restarts, failovers := from.nm.walkRetries.Value(), from.nm.walkRestarts.Value(), from.nm.failoverClimbs.Value()

	res, err := from.Lookup(context.Background(), key)
	if err != nil {
		t.Fatalf("lookup past a dead hop named by %s's climbed reply: %v", c.answerer, err)
	}
	if want := trueOwner(survivors, key).Addr(); res.Owner.Addr != want {
		t.Errorf("owner %s, want %s", res.Owner.Addr, want)
	}
	if got := from.nm.walkRetries.Value() - retries; got < 1 {
		t.Errorf("walk_retries_total moved by %d, want at least 1: the step was not retried from %s", got, c.answerer)
	}
	if got := from.nm.walkRestarts.Value() - restarts; got != 0 {
		t.Errorf("walk_restarts_total moved by %d, want 0: the climbed reply's answerer was not kept as the supplier", got)
	}
	if got := from.nm.failoverClimbs.Value() - failovers; got != 0 {
		t.Errorf("failover_climbs_total moved by %d, want 0", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if evicted[climb{c.answerer, c.next}] == 0 {
		t.Errorf("%s was never told to evict the dead hop %s (evictions sent: %v)", c.answerer, c.next, evicted)
	}
}

// TestClimbedReplyBadLayer: a find_closest reply that names a layer the
// walk cannot climb to — not above the step's own — is refused as a
// remote error, never followed and never used to index the per-layer hop
// counts.
func TestClimbedReplyBadLayer(t *testing.T) {
	var sent atomic.Int64
	wrap := func(cfg *Config) {
		cfg.WrapCaller = func(self string, inner wire.Caller) wire.Caller {
			return wire.CallerFunc(func(ctx context.Context, addr string, req wire.Request) (wire.Response, error) {
				resp, err := inner.Call(ctx, addr, req)
				if req.Type == wire.TFindClosest && req.Hierarchical {
					sent.Add(1)
					resp.Layer = req.Layer
				}
				return resp, err
			})
		}
	}
	nodes := twoRingCluster(t, 8, wrap)
	refused := 0
	for i := 0; i < 16; i++ {
		before := sent.Load()
		_, err := nodes[0].Lookup(context.Background(), id.HashString(fmt.Sprintf("bad-layer-%d", i)))
		switch {
		case sent.Load() == before && err != nil:
			t.Fatalf("lookup %d sent no find_closest and failed: %v", i, err)
		case sent.Load() > before && !wire.IsRemote(err):
			t.Fatalf("lookup %d followed a reply for its own layer: err = %v, want a remote error", i, err)
		case err != nil:
			refused++
		}
	}
	if refused == 0 {
		t.Fatal("no lookup sent a find_closest to a remote node")
	}
}
