package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/binning"
	"repro/internal/id"
	"repro/internal/replica"
	"repro/internal/wire"
)

// maxWalk bounds any iterative walk; lookups are O(log N) in a healthy
// overlay, so hitting this indicates inconsistent state.
const maxWalk = 4 * id.Bits

// maxWalkRestarts bounds how often a degraded walk may restart from this
// node after an unrecoverable dead hop before giving up on the layer.
const maxWalkRestarts = 2

// call performs one RPC through the node's full outgoing chain — retry
// policy and circuit breaker over the (possibly fault-injected)
// instrumented pooled transport. The context bounds the whole call
// including retries; each attempt is additionally capped by the
// configured per-attempt timeout.
//
// A request addressed to this node itself is answered in-process, above
// that chain: it never leaves the node, so it is not a message — nothing
// counts it, nothing can lose it, nothing retries it. Walks start at their
// origin and a node can be its own ring-table store, its own replica and
// its own successor, so callers need no local case of their own. The
// handler keeps what a request carries and may answer with the store's
// own value; over the wire the codec copies both ways, and here
// wire.Detach and wire.Answered copy in its place.
//
// Every RPC of a lookup and of a quorum operation passes here, so this is
// where a Trace on the context records them (WithTrace); without one a
// call pays one ctx.Value.
func (n *Node) call(ctx context.Context, addr string, req wire.Request) (wire.Response, error) {
	if addr != n.addr {
		if t, _ := ctx.Value(traceKey{}).(*Trace); t != nil {
			return n.tracedCall(ctx, t, addr, req)
		}
		return n.retrier.Call(ctx, addr, req)
	}
	if ctx.Err() != nil {
		return wire.Response{}, &wire.NetError{Addr: addr, Op: "call", Sent: false, Err: context.Cause(ctx)}
	}
	wire.Detach(&req)
	var resp wire.Response
	n.handle(&req, &resp)
	return wire.Answered(req.Type, resp)
}

// callBG is call for maintenance paths (stabilization, repair, leave,
// joins): they run on their own cadence with no caller to propagate a
// deadline from, so each RPC is bounded by the per-attempt timeout and
// retry budget — and by the node's lifecycle context, so Close aborts
// any maintenance chain mid-flight instead of letting it finish against
// a dying node.
func (n *Node) callBG(addr string, req wire.Request) (wire.Response, error) {
	return n.call(n.lifeCtx, addr, req)
}

// suspectDead reports whether addr has accumulated enough consecutive
// transport failures — one fully retried failed call — or an open
// breaker to be treated as dead. Walks consult this before firing TEvict,
// so a single dropped packet no longer evicts a live peer — the retry
// layer has to exhaust its attempts first.
func (n *Node) suspectDead(addr string) bool {
	return n.retrier.ConsecutiveFailures(addr) >= n.cfg.Retry.EffectiveAttempts() || n.retrier.BreakerOpen(addr)
}

// CreateNetwork makes this node the first member of a new overlay: it is
// its own successor and predecessor in every layer and stores its own ring
// tables.
func (n *Node) CreateNetwork() error {
	names, err := n.computeRingNames()
	if err != nil {
		return err
	}
	self := n.Self()
	n.mu.Lock()
	n.ringNames = names
	n.landmarks = append([]string(nil), n.cfg.Landmarks...)
	n.joined = true
	for _, ls := range n.layers {
		ls.succ = []wire.Peer{self}
		ls.pred = self
	}
	for l, name := range names {
		t := updateBoundaries(wire.RingTable{Layer: l + 2, Name: name}, self)
		n.tables[ringKey(t.Layer, t.Name)] = t
	}
	n.mu.Unlock()
	n.announceRoutes()
	return nil
}

// computeRingNames probes the landmarks and bins the node.
func (n *Node) computeRingNames() ([]string, error) {
	if n.cfg.Depth == 1 {
		return nil, nil
	}
	if len(n.cfg.Landmarks) == 0 {
		return nil, fmt.Errorf("transport: depth %d needs landmark addresses", n.cfg.Depth)
	}
	lats := make([]float64, len(n.cfg.Landmarks))
	for i, lm := range n.cfg.Landmarks {
		lat, err := n.cfg.Prober.Latency(n.lifeCtx, n.pool, lm)
		if err != nil {
			return nil, fmt.Errorf("transport: probing landmark %s: %w", lm, err)
		}
		lats[i] = lat
	}
	return binning.RingNames(lats, n.ladder)
}

// Join integrates the node into an existing overlay through bootstrap
// (paper §3.3).
func (n *Node) Join(bootstrap string) error {
	// Learn the landmark table from the nearby node when we have none.
	info, err := n.callBG(bootstrap, wire.Request{Type: wire.TGetInfo})
	if err != nil {
		return fmt.Errorf("transport: bootstrap unreachable: %w", err)
	}
	if len(n.cfg.Landmarks) == 0 {
		n.cfg.Landmarks = info.Landmarks
	}
	names, err := n.computeRingNames()
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.ringNames = names
	n.landmarks = append([]string(nil), n.cfg.Landmarks...)
	n.mu.Unlock()

	// Highest layer first: find our global successor through bootstrap.
	gsucc, _, err := n.walkOwner(n.lifeCtx, bootstrap, 1, n.id)
	if err == nil {
		err = n.joinAt(1, gsucc)
	}
	if err != nil {
		return fmt.Errorf("transport: joining the global ring: %w", err)
	}
	// Lower layers: ring table lookup, then join inside the ring.
	for l, name := range names {
		if err := n.joinRing(bootstrap, l+2, name); err != nil {
			return fmt.Errorf("transport: joining ring %d:%q: %w", l+2, name, err)
		}
	}
	n.mu.Lock()
	n.joined = true
	n.mu.Unlock()
	n.announceRoutes()
	return nil
}

// joinAt makes succ this node's successor in a ring it is joining and
// notifies it. A ring that answers with the joiner's own address still
// lists a previous incarnation of it (a crashed node that restarts within
// one stabilization period); adopting that answer would make the joiner
// its own successor, a self-loop the ring routes into. The join is
// refused instead, to be retried once the stale entry has been evicted.
func (n *Node) joinAt(layer int, succ wire.Peer) error {
	if succ.Addr == n.addr {
		return fmt.Errorf("layer %d still lists a previous incarnation of %s", layer, n.addr)
	}
	n.mu.Lock()
	n.layers[layer-1].succ = []wire.Peer{succ}
	n.mu.Unlock()
	_, err := n.callBG(succ.Addr, wire.Request{Type: wire.TNotify, Layer: layer, Peer: n.Self()})
	return err
}

// routeEvent records a membership event for p in the one-hop table,
// stamped past everything seen for p. Every event goes under the global
// ring's subject (1, ""): ownership is the global ring's to decide, so it
// is the one ring lookups read the table for.
func (n *Node) routeEvent(p wire.Peer, kind uint8) {
	n.routes.Apply(wire.RouteEvent{
		Layer: 1, Ring: "", Peer: p, Kind: kind,
		Stamp: n.routes.NextStamp(1, "", p.Addr, wire.Stamp(n.cfg.Clock)),
	})
}

// learnRoute records p as a live member unless the table already says so.
// The fresh stamp outranks any tombstone the table holds for p.
func (n *Node) learnRoute(p wire.Peer) {
	if cur, ok := n.routes.Latest(1, "", p.Addr); !ok || cur.Kind != wire.RouteJoin {
		n.routeEvent(p, wire.RouteJoin)
	}
}

// announceRoutes records this node's own membership as a join event;
// gossip spreads it on the stabilize cadence. It doubles as self-defense:
// a node that finds itself tombstoned (a false eviction minted during a
// partition) re-announces with a stamp that outranks the tombstone, so a
// live node always wins its way back into remote tables.
func (n *Node) announceRoutes() {
	if n.routes != nil {
		n.learnRoute(n.Self())
	}
}

// gossipFanout is the set of peers one gossip round pushes to: the
// global-ring successor list plus the predecessor. Piggybacking on the
// stabilized neighborhood means gossip reaches exactly the peers whose
// liveness the node is already maintaining, and events travel the ring
// in both directions.
func (n *Node) gossipFanout() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	seen := map[string]bool{n.addr: true, "": true}
	var targets []string
	for _, p := range n.layers[0].succ {
		if !seen[p.Addr] {
			seen[p.Addr] = true
			targets = append(targets, p.Addr)
		}
	}
	if p := n.layers[0].pred; !seen[p.Addr] {
		targets = append(targets, p.Addr)
	}
	return targets
}

// pushRoutes reconciles the one-hop table with each target, asking before
// it tells. A target that agreed names — its last liveness reply of this
// round was "same" to the summary the table still has (see askLive) — has
// been asked already, and is skipped. Any other gets a probe, TRouteGossip
// with no events and the table's summary in Key. A target with the same
// summary says so (Found) and that is the whole exchange. One that differs
// replies with its event set; this node merges it and pushes back only
// what the reply shows the target to lack, again with its summary. The
// summary is read per target: what one target taught is passed on to the
// next in the same round. Exchanged payload bytes are counted against
// route_gossip_bytes_total.
func (n *Node) pushRoutes(targets []string, agreed map[string]heard) {
	for _, addr := range targets {
		sum := n.routes.Summary()
		if h := agreed[addr]; h.sum != 0 && h.sum == sum {
			continue
		}
		resp, err := n.callBG(addr, wire.Request{Type: wire.TRouteGossip, Key: summaryKey(sum)})
		if err != nil {
			continue
		}
		n.nm.gossipBytes.Add(routeProbeBytes + routeEventsBytes(resp.Events))
		if resp.Found {
			continue
		}
		n.routes.ApplyAll(resp.Events)
		news := n.routes.Diff(resp.Events)
		if len(news) == 0 {
			continue
		}
		resp, err = n.callBG(addr, wire.Request{Type: wire.TRouteGossip, Key: summaryKey(n.routes.Summary()), Events: news})
		if err != nil {
			continue // the target still differs next round, and is probed again
		}
		n.nm.gossipBytes.Add(routeEventsBytes(news) + routeEventsBytes(resp.Events))
		n.routes.ApplyAll(resp.Events)
	}
}

// summaryKey carries a table summary in a request's Key field.
func summaryKey(sum uint64) (key [20]byte) {
	binary.BigEndian.PutUint64(key[:8], sum)
	return key
}

// routeEventsBytes measures the gossip payload cost of an event set: the
// size of its wire encoding.
func routeEventsBytes(evs []wire.RouteEvent) uint64 {
	if len(evs) == 0 {
		return 0
	}
	b, err := wire.Binary{}.AppendRequest(nil, &wire.Request{Type: wire.TRouteGossip, Events: evs})
	if err != nil {
		return 0
	}
	return uint64(len(b))
}

// routeProbeBytes is the payload of a probe: type, field mask and Key.
const routeProbeBytes = 22

// routeSummaryBytes is what a summary adds to a liveness request: its Key.
const routeSummaryBytes = 20

// RouteGossipOnce runs one route-gossip exchange (see pushRoutes) with the
// gossip fanout. StabilizeOnce calls it every round, after the global
// ring's stabilization has asked most of the fanout already; it takes what
// those answers agreed on, so a call with no stabilization before it
// probes every target. The folds those answers agreed on it leaves for the
// round's anti-entropy. It is exposed separately so harnesses can drive
// the gossip cadence explicitly.
func (n *Node) RouteGossipOnce() error {
	if n.routes == nil {
		return nil
	}
	n.mu.Lock()
	joined, agreed := n.joined, n.agreed
	n.agreed = nil
	n.mu.Unlock()
	if joined {
		n.announceRoutes()
		n.pushRoutes(n.gossipFanout(), agreed)
	}
	for addr, h := range agreed {
		if h.fold {
			agreed[addr] = heard{fold: true}
		} else {
			delete(agreed, addr)
		}
	}
	n.mu.Lock()
	if n.agreed == nil { // else a liveness reply came in since: its evidence is the newer
		n.agreed = agreed
	}
	n.mu.Unlock()
	return nil
}

// heard is what a global-ring neighbor's liveness reply said "same" to.
type heard struct {
	sum  uint64 // the route summary its table matched; 0: none
	fold bool   // its replica fold of the arc the two share matched this node's
}

// askLive sends one of stabilizeSuccessors' liveness requests: on the
// global ring through ask, with the one-hop table's summary when the node
// runs the tier and, when fold is set, the replica fold for addr.
func (n *Node) askLive(layer int, addr string, req wire.Request, fold bool) (wire.Response, error) {
	if layer != 1 || addr == n.addr {
		return n.callBG(addr, req)
	}
	var sum uint64
	if n.routes != nil {
		sum = n.routes.Summary()
	}
	return n.ask(n.lifeCtx, addr, req, sum, fold)
}

// ask sends a global-ring liveness request with the questions it can carry
// in Key, a field pings and get_neighbors leave unused: a route-table
// summary sum (0: none) in Key[0:8], which the reply's Found says addr's
// table matches — the answer a gossip probe would get —
// and, when fold is set, the replica fold of the arc this node shares with
// addr in Key[8:16] (replica.Coordinator.Fold), which the reply's SameFold
// says addr's store matches — the answer a digest would get. Both at no
// message of their own. Each reply overwrites addr's record in agreed, so
// a lost one leaves addr to be probed and sent a digest. The summary's
// bytes count as gossip, the fold's as anti-entropy.
func (n *Node) ask(ctx context.Context, addr string, req wire.Request, sum uint64, fold bool) (wire.Response, error) {
	var f uint64
	if fold {
		f = n.co.Fold(addr)
	}
	if sum == 0 && f == 0 {
		return n.call(ctx, addr, req)
	}
	binary.BigEndian.PutUint64(req.Key[:8], sum)
	binary.BigEndian.PutUint64(req.Key[8:16], f)
	resp, err := n.call(ctx, addr, req)
	var h heard
	if err == nil {
		if sum != 0 {
			n.nm.gossipBytes.Add(routeSummaryBytes)
		}
		if resp.Found && sum != 0 {
			h.sum = sum
		}
		h.fold = resp.SameFold && f != 0
	}
	n.mu.Lock()
	if h != (heard{}) {
		if n.agreed == nil {
			n.agreed = make(map[string]heard)
		}
		n.agreed[addr] = h
	} else {
		delete(n.agreed, addr)
	}
	n.mu.Unlock()
	return resp, err
}

// takeFolded is the replica coordinator's evidence source
// (replica.Coordinator.Folded): it takes agreed — what route gossip left
// of it, or all of it when none ran — and returns the peers whose fold
// matched.
func (n *Node) takeFolded() []string {
	n.mu.Lock()
	agreed := n.agreed
	n.agreed = nil
	n.mu.Unlock()
	var same []string
	for addr, h := range agreed {
		if h.fold {
			same = append(same, addr)
		}
	}
	return same
}

// announceLeaveRoutes tombstones this node's own membership and pushes
// the result to the neighbors that keep serving, so remote one-hop
// tables learn of a graceful departure without waiting for failure
// detection.
func (n *Node) announceLeaveRoutes() {
	if n.routes == nil {
		return
	}
	n.routeEvent(n.Self(), wire.RouteLeave)
	n.pushRoutes(n.gossipFanout(), nil)
}

// ringEntry is what one consultation of a lower ring's entry point found.
type ringEntry struct {
	storing wire.Peer      // global-ring owner of the ring's id, where its table lives
	stored  wire.RingTable // the table as stored there; the zero table when none is
	live    wire.RingTable // stored, less the boundary slots whose node did not answer the walk's first step
	succ    wire.Peer      // this node's successor by the ring's own account; zero when the ring was not walked or the table names no live node but this one
}

// enterRing consults a lower ring's entry point (paper §3.3): read the
// ring's table at the node storing it, and walk the ring from one of its
// boundary nodes to this node's successor. Join, the merge scan, the
// re-anchor of a ring whose successor list died and the table re-announce
// are all uses of this one chain.
//
// Each half is skipped when its answer is already here. The storing node is
// the one that answered last time (verify-or-fallback, like any owner
// hint): the global ring is walked from via only when there is no such
// node, it does not answer, or it no longer vouches for the table with
// Owner. The ring is walked only when that can tell this node something:
// unsettled (this round's stabilization changed the successor, found none
// or found a singleton, or this is a join), the table differs from the one
// the last completed consultation read, this node is itself a boundary —
// the boundary members are how two healthy components of one ring find
// each other — or the hint fell back.
//
// The walk starts at the first boundary other than this node, and a
// boundary whose first step fails in transport is dropped from live for
// announce to write back, so a joiner retires the dead boundaries it meets;
// RepairRingTables on the storing node retires the rest. Boundary sets are
// otherwise grow-only (updateBoundaries keeps whatever extremes it has
// seen), so a ring whose smallest/largest members crashed would advertise
// only dead contact points forever and become unjoinable. This node is
// never walked through: a walk through its own address would ask the ring
// about itself — of a joiner whose old incarnation the table still lists,
// a ring it has not joined yet.
func (n *Node) enterRing(via string, layer int, name string, unsettled bool) (ringEntry, error) {
	n.mu.Lock()
	ls := n.layers[layer-1]
	e, last := ringEntry{storing: ls.storing}, ls.table
	n.mu.Unlock()
	get := wire.Request{Type: wire.TGetRingTable, Table: wire.RingTable{Layer: layer, Name: name}}
	var resp wire.Response
	var err error
	if e.storing.Addr != "" {
		resp, err = n.callBG(e.storing.Addr, get)
	}
	hinted := err == nil && resp.Owner
	if hinted {
		n.nm.consultHint.Inc()
	} else {
		n.nm.consultWalk.Inc()
		if e.storing, _, err = n.walkOwner(n.lifeCtx, via, 1, binning.RingID(layer, name)); err != nil {
			return ringEntry{}, err
		}
		if resp, err = n.callBG(e.storing.Addr, get); err != nil {
			return ringEntry{}, err
		}
	}
	e.stored = resp.Table
	e.live = e.stored
	e.live.Layer, e.live.Name = layer, name
	slots := boundarySlots(&e.live)
	boundary := slices.ContainsFunc(slots[:], func(p *wire.Peer) bool { return p.Addr == n.addr })
	if unsettled || !hinted || boundary || e.stored != last {
		for _, p := range slots {
			if p.Addr == "" || p.Addr == n.addr {
				continue
			}
			var hops int
			if e.succ, hops, err = n.walkOwner(n.lifeCtx, p.Addr, layer, n.id); err == nil || hops > 0 || wire.IsRemote(err) {
				break
			}
			err = nil
			dropBoundary(&e.live, p.Addr)
		}
	}
	n.mu.Lock()
	ls.storing = e.storing
	if err == nil {
		ls.table = e.stored
	}
	n.mu.Unlock()
	return e, err
}

// announce merges this node into the ring table an entry-point
// consultation read and writes the result back when it differs from what
// is stored (paper: "if it should replace one of them, it sends a ring
// table modification message back") — which includes the case that
// nothing is stored. Re-creating a missing table closes a split window: if
// the node that stored it crashed before stabilization re-homed it, the
// next joiner binned into that ring would find no table and create a
// second, disjoint ring under the same name.
func (n *Node) announce(e ringEntry) error {
	t := updateBoundaries(e.live, n.Self())
	if t == e.stored {
		return nil
	}
	_, err := n.callBG(e.storing.Addr, wire.Request{Type: wire.TPutRingTable, Table: t})
	return err
}

// joinRing implements one lower-layer join: consult the ring's entry
// point, integrate via the successor it names — or found the ring when it
// names no live member — and enter this node into the ring table.
func (n *Node) joinRing(bootstrap string, layer int, name string) error {
	e, err := n.enterRing(bootstrap, layer, name, true)
	if err != nil {
		return err
	}
	if e.succ.Addr == "" {
		self := n.Self()
		n.mu.Lock()
		n.layers[layer-1].succ = []wire.Peer{self}
		n.layers[layer-1].pred = self
		n.mu.Unlock()
	} else if err := n.joinAt(layer, e.succ); err != nil {
		return err
	}
	return n.announce(e)
}

// boundarySlots returns t's boundary slots in the order a walk into the
// ring tries them.
func boundarySlots(t *wire.RingTable) [4]*wire.Peer {
	return [4]*wire.Peer{&t.Smallest, &t.Largest, &t.SecondSm, &t.SecondLg}
}

// dropBoundary blanks every slot of t that names addr.
func dropBoundary(t *wire.RingTable, addr string) {
	for _, p := range boundarySlots(t) {
		if p.Addr == addr {
			*p = wire.Peer{}
		}
	}
}

// updateBoundaries merges a candidate into the table's four boundary
// slots.
func updateBoundaries(t wire.RingTable, cand wire.Peer) wire.RingTable {
	peers := []wire.Peer{t.Smallest, t.SecondSm, t.Largest, t.SecondLg, cand}
	peers = slices.DeleteFunc(peers, func(p wire.Peer) bool { return p.Addr == "" })
	slices.SortFunc(peers, func(a, b wire.Peer) int { return peerID(a).Cmp(peerID(b)) })
	peers = slices.Compact(peers)
	k := len(peers)
	t.Smallest, t.SecondSm = peers[0], peers[min(1, k-1)]
	t.Largest, t.SecondLg = peers[k-1], peers[max(k-2, 0)]
	return t
}

// evictAt tells `at` that `dead` no longer answers, so it purges the
// reference from the layer's routing state (Chord's timeout handling).
// A confirmed death also dirties the sweep flag: keys whose replica
// set included the dead peer need a new home.
func (n *Node) evictAt(at string, layer int, dead string) {
	n.nm.evictions.Inc()
	n.markSweepNeeded()
	_, _ = n.callBG(at, wire.Request{
		Type:  wire.TEvict,
		Layer: layer,
		Peer:  wire.Peer{Addr: dead, ID: [20]byte(NodeID(dead))},
	})
}

// errWalkDiverged marks a walk that used up maxWalk steps: routing state
// is inconsistent, which no amount of climbing or restarting repairs.
var errWalkDiverged = errors.New("walk did not converge")

// walk routes one key through one ring: TFindClosest steps in `layer`
// starting at `from`, until a node gives a terminal reply (it owns the
// key, or the key falls between it and its successor) or, in a
// hierarchical walk, a climbed one (resp.Layer names the layer further up
// that the node went on to answer for). It returns that reply — resp.Self is where
// the walk ended — and the forwarding steps taken. A dead hop is handled
// in stages: the step is retried from the node that supplied the hop
// (`supplier` for `from`, if any; the node is told to evict the reference
// once the suspicion tracker confirms the peer dead), and when no
// supplier is left, the walk restarts from `home` (bounded by
// maxWalkRestarts); the error of the hop the policy finally gave up on is
// returned. Application-level errors mean the hop is alive and are
// returned at once — never grounds for eviction.
func (n *Node) walk(ctx context.Context, from, supplier, home string, layer int, key id.ID, hierarchical bool) (wire.Response, int, error) {
	cur, prev := from, supplier
	hops, restarts := 0, 0
	for i := 0; i < maxWalk; i++ {
		resp, err := n.call(ctx, cur, wire.Request{
			Type: wire.TFindClosest, Layer: layer, Key: [20]byte(key),
			Hierarchical: hierarchical,
		})
		if err != nil {
			if wire.IsRemote(err) {
				return wire.Response{}, hops, err
			}
			suspect := n.suspectDead(cur)
			if suspect {
				n.evictLocal(layer, cur)
			}
			if prev != "" && prev != cur {
				n.nm.walkRetries.Inc()
				if suspect {
					n.evictAt(prev, layer, cur)
				}
				cur, prev = prev, ""
				continue
			}
			if restarts < maxWalkRestarts && cur != home {
				restarts++
				n.nm.walkRestarts.Inc()
				cur, prev = home, ""
				continue
			}
			return wire.Response{}, hops, err
		}
		if resp.Layer != 0 && (!hierarchical || resp.Layer < 1 || resp.Layer >= layer) {
			return wire.Response{}, hops, &wire.RemoteError{Type: wire.TFindClosest,
				Msg: fmt.Sprintf("%s answered a layer-%d step for layer %d", cur, layer, resp.Layer)}
		}
		if resp.Done || resp.Layer != 0 {
			return resp, hops, nil
		}
		prev, cur = cur, resp.Next.Addr
		hops++
	}
	return wire.Response{}, hops, fmt.Errorf("transport: layer %d walk for %s: %w", layer, key.Short(), errWalkDiverged)
}

// walkOwner walks one layer's ring from `via` (ring-local ownership, no
// hierarchical destination check) and returns the key's owner in that
// layer and the number of hops.
func (n *Node) walkOwner(ctx context.Context, via string, layer int, key id.ID) (wire.Peer, int, error) {
	resp, hops, err := n.walk(ctx, via, "", via, layer, key, false)
	if err != nil {
		return wire.Peer{}, hops, err
	}
	if !resp.Owner {
		hops++ // the final forward to the last hop's successor
	}
	return resp.Next, hops, nil
}

// LookupResult describes a completed hierarchical lookup.
type LookupResult struct {
	Owner wire.Peer
	Hops  int
	// LayerHops[0] counts global-ring hops; LayerHops[l] layer-(l+1) hops.
	// Entries past the node's depth read 0.
	LayerHops [binning.MaxDepth]int
	// OneHop is set when the one-hop table's hint answered, verified with
	// one call; the walk answered otherwise.
	OneHop bool
}

// Lookup routes hierarchically from this node to the owner of key,
// asking the one-hop route table first in RouteOneHop mode; its hinted
// owner is confirmed with one RPC before use, so staleness costs one
// wasted call, never a wrong answer. The context bounds the whole lookup:
// cancellation or a deadline aborts the walk between (and inside) hops.
func (n *Node) Lookup(ctx context.Context, key id.ID) (LookupResult, error) {
	n.nm.lookups.Inc()
	if n.routes != nil {
		if owner, ok := n.routes.Owner(1, "", [20]byte(key)); ok {
			if res, ok := n.verifyOwner(ctx, owner, key); ok {
				n.nm.onehopHits.Inc()
				return res, nil
			}
			n.nm.onehopStale.Inc()
			if n.suspectDead(owner.Addr) {
				// The table named a dead owner; tombstone it so the walk
				// below (and every later lookup) stops consulting it.
				n.evictLocal(1, owner.Addr)
			}
		}
	}
	res, err := n.lookupFull(ctx, key)
	if err != nil {
		n.nm.lookupErrors.Inc()
	} else if n.routes != nil {
		// Learn the authoritative owner the walk just confirmed, so the
		// next lookup in this key region goes single-hop. A live owner
		// also outranks any false tombstone the table may hold for it.
		n.learnRoute(res.Owner)
	}
	return res, err
}

// verifyOwner checks a route-table hint with a single RPC: the
// hierarchical destination check at the hinted peer. Only a confirmed
// owner is used, so a stale table can waste one call but never
// misroute. A hint naming this node is checked in-process: no message,
// so no hop.
func (n *Node) verifyOwner(ctx context.Context, owner wire.Peer, key id.ID) (LookupResult, bool) {
	resp, err := n.call(ctx, owner.Addr, wire.Request{
		Type: wire.TFindClosest, Layer: 1, Key: [20]byte(key), Hierarchical: true,
	})
	if err != nil || !resp.Owner {
		return LookupResult{}, false
	}
	res := LookupResult{Owner: resp.Next, OneHop: true}
	if owner.Addr != n.addr {
		res.Hops, res.LayerHops[0] = 1, 1
		n.nm.hops.At(0).Inc()
	}
	return res, true
}

// lookupFull is the uncached hierarchical routing procedure: one walk per
// layer, most local ring first, each starting where the previous one
// ended. The node a lower-ring walk ends at answers for the layers above
// in the same reply (findClosestLocked), so the climb costs no message:
// its answer is the next walk's first step, and the hop it names stays
// its to supply. It degrades gracefully under failures: when a lower ring
// stays unroutable after walk's retries and restarts, the lookup climbs
// to the next layer up from this node instead of aborting — the global
// ring is the final authority on ownership, so skipping a broken lower
// ring costs hops, never correctness.
func (n *Node) lookupFull(ctx context.Context, key id.ID) (LookupResult, error) {
	var res LookupResult
	count := func(layer, hops int) {
		res.Hops += hops
		res.LayerHops[layer-1] += hops
		n.nm.hops.At(layer - 1).Add(uint64(hops))
	}
	cur, supplier, layer := n.addr, "", n.cfg.Depth
	for {
		resp, hops, err := n.walk(ctx, cur, supplier, n.addr, layer, key, true)
		supplier = ""
		if err == nil && resp.Layer != 0 {
			count(layer, hops)
			n.nm.ringClimbs.Add(uint64(layer - resp.Layer))
			layer, hops = resp.Layer, 0
			if !resp.Done {
				count(layer, 1)
				cur, supplier = resp.Next.Addr, resp.Self.Addr
				continue
			}
		}
		if err == nil && layer == 1 && !resp.Owner {
			hops++ // the final forward to the last hop's successor, the owner
		}
		count(layer, hops)
		switch {
		case err == nil && (resp.Owner || layer == 1):
			res.Owner = resp.Next
			return res, nil
		case err == nil:
			n.nm.ringClimbs.Inc()
			cur = resp.Self.Addr // continue upward from the ring predecessor
		case layer == 1 || wire.IsRemote(err) || errors.Is(err, errWalkDiverged):
			return res, err
		default:
			// This ring is unroutable right now; climb a layer and
			// keep going rather than failing the lookup.
			n.nm.failoverClimbs.Inc()
			cur = n.addr
		}
		layer--
	}
}

// resolveReplicaSet maps a key to its current replica set over the
// network: the key's owner (by hierarchical lookup) followed by the
// owner's global successors, deduplicated, at most Replication.Factor
// members. It is the fallback under the local sources (replicaNeighbors,
// ownerRead). When the owner's neighbor state is unreachable, the
// resolver degrades to this node's own successor list, provided that list
// covers the same ring region, so a freshly dead owner does not make the
// key unresolvable for the nodes next to it.
func (n *Node) resolveReplicaSet(ctx context.Context, key string) ([]string, error) {
	res, err := n.Lookup(ctx, LiveKeyID(key))
	if err != nil {
		return nil, err
	}
	owner := res.Owner.Addr
	var succs []wire.Peer
	if nb, nbErr := n.call(ctx, owner, wire.Request{Type: wire.TGetNeighbors, Layer: 1}); nbErr == nil {
		succs = nb.Succ
	} else {
		// Owner unreachable: re-walk for a live owner and fall back to our
		// own successor list for the trailing members.
		if again, lerr := n.Lookup(ctx, LiveKeyID(key)); lerr == nil && again.Owner.Addr != owner {
			owner = again.Owner.Addr
			if nb2, err2 := n.call(ctx, owner, wire.Request{Type: wire.TGetNeighbors, Layer: 1}); err2 == nil {
				succs = nb2.Succ
			}
		}
		if len(succs) == 0 {
			// Our own list speaks for the owner's region only when it lists
			// the owner: what follows it there is the owner's successors.
			// From anywhere else on the ring it names nodes that are not
			// replicas, and a write acknowledged by them would be lost to
			// every reader until anti-entropy re-homed the strays.
			own, _, _ := n.Neighbors(1)
			at := slices.IndexFunc(own, func(p wire.Peer) bool { return p.Addr == owner })
			if at < 0 {
				return nil, fmt.Errorf("transport: replica set of %q: owner %s unreachable: %w", key, owner, nbErr)
			}
			succs = own[at+1:]
		}
	}
	return replica.ReplicaSet(nil, owner, succs, n.cfg.Replication.Factor), nil
}

// replicaNeighbors is the replica coordinator's local source of replica
// sets for anti-entropy (replica.NeighborsFunc): this node's stretch of the
// global ring, [p_Factor … p1, self, successor list]. The predecessor and
// the successors are the node's own state; every further predecessor costs
// one TGetNeighbors to the previous one, and a link counts only when both
// ends agree on it — the answerer's first successor must be the member the
// chain came from, and it must lie before that member without lapping this
// node. On a ring of at most Factor nodes the chain arrives back at this
// node and stops: the stretch is the whole ring. A stretch that cannot be
// vouched for (no predecessor yet, one that died or changed since the last
// stabilization round) is not reported; the round then resolves every key
// over the network, as it did before there was a local source.
//
// The first step costs nothing when this round's predecessor check was it
// (head, see stabilizeSuccessors): the walk then goes on the liveness
// exchange that check began, and each further step asks its answerer's
// fold too (see ask).
func (n *Node) replicaNeighbors(ctx context.Context) ([]wire.Peer, int, bool) {
	self := n.Self()
	succ, pred, _ := n.Neighbors(1)
	n.mu.Lock()
	head := n.head
	n.head = chainLink{}
	n.mu.Unlock()
	factor := n.cfg.Replication.Factor
	preds := make([]wire.Peer, 0, factor) // nearest first
	live := false                         // the walk goes on this round's liveness exchange
	for from, p := self, pred; ; {
		if p.Addr == "" || (p.Addr != n.addr && from.Addr != n.addr && !id.Between(peerID(p), n.id, peerID(from))) {
			return nil, 0, false
		}
		preds = append(preds, p)
		if p.Addr == n.addr || len(preds) == factor {
			break
		}
		next, first := head.pred, head.succ
		if from.Addr == n.addr && p.Addr == head.of {
			live = true
		} else {
			req := wire.Request{Type: wire.TGetNeighbors, Layer: 1}
			var nb wire.Response
			var err error
			if live {
				nb, err = n.ask(ctx, p.Addr, req, 0, true)
			} else {
				nb, err = n.call(ctx, p.Addr, req)
			}
			if err != nil || len(nb.Succ) == 0 {
				return nil, 0, false
			}
			next, first = nb.Pred, nb.Succ[0].Addr
		}
		if first != from.Addr {
			return nil, 0, false
		}
		from, p = p, next
	}
	slices.Reverse(preds)
	chain := append(append(preds, self), succ...)
	return chain, len(preds), true
}

// ownerRead is the replica coordinator's local source of replica sets for
// quorum operations (replica.OwnerReadFunc): the operation's first request
// — a Get's TStoreGet or a write's TStorePut, Layer 1 set — goes straight
// to the node the one-hop table, else a lookup names as the key's owner.
// The handler reads Layer 1 as "act on this only if you own the key in
// the global ring, and name your successors". A vouched answer is at once
// the ownership verification Lookup spends a find_closest on, the
// neighbor read resolveReplicaSet spends a get_neighbors on, and the read
// or the install itself. A refusal or an unreachable hint invalidates the
// hint exactly as a failed verification in Lookup does, and the caller
// takes the network path.
func (n *Node) ownerRead(ctx context.Context, first wire.Request) (string, wire.Response, bool) {
	kid := LiveKeyID(first.Name)
	var owner wire.Peer
	hint := false
	if n.routes != nil {
		owner, hint = n.routes.Owner(1, "", [20]byte(kid))
	}
	if !hint {
		res, err := n.Lookup(ctx, kid)
		if err != nil {
			return "", wire.Response{}, false
		}
		owner = res.Owner
	}
	resp, err := n.call(ctx, owner.Addr, first)
	if err != nil || !resp.Owner {
		if hint {
			n.nm.onehopStale.Inc()
			if n.suspectDead(owner.Addr) {
				n.evictLocal(1, owner.Addr)
			}
		}
		return "", wire.Response{}, false
	}
	if hint {
		// A hint the owner confirmed is a lookup answered in one hop.
		n.nm.lookups.Inc()
		n.nm.hops.At(0).Inc()
		n.nm.onehopHits.Inc()
	}
	return owner.Addr, resp, true
}

// Put stores a value durably: a quorum write of a version-stamped item
// to the key's replica set (the owner plus its successors). The write
// is acknowledged once Replication.WriteQuorum members accepted it;
// members missed here are caught up by read-repair and the
// anti-entropy round.
func (n *Node) Put(ctx context.Context, key string, value []byte) error {
	return n.co.Put(ctx, key, value)
}

// Get fetches a value with a quorum read over the key's replica set,
// returning the freshest version seen and read-repairing stale members.
// A missing key is an error, replica.ErrNotFound, which Get reports
// only when every replica-set member answered.
func (n *Node) Get(ctx context.Context, key string) ([]byte, error) {
	return n.co.Get(ctx, key)
}

// Delete removes a key durably: a quorum write of a tombstone that
// supersedes live versions through the normal LWW order, so a stale
// replica cannot resurrect the key. The tombstone is garbage-collected
// TTL after the delete (kept forever when TTL is 0).
func (n *Node) Delete(ctx context.Context, key string) error {
	return n.co.Delete(ctx, key)
}

// ReplicaAntiEntropyOnce runs one digest-based anti-entropy round:
// purge expired items, republish owner-held items nearing expiry,
// re-home keys this node no longer owes, then exchange compact range
// digests with every replica-set peer and transfer only the divergent
// buckets. Returns pulled/pushed item counts and local drops. It runs
// under the node's lifecycle context, so Close aborts it promptly
// instead of waiting out in-flight member calls.
func (n *Node) ReplicaAntiEntropyOnce() (pulled, pushed, dropped int, err error) {
	return n.co.AntiEntropyOnce(n.lifeCtx)
}

// ReplicaFullSweepBytes reports the bytes a full-transfer repair round
// would ship from this node right now — every held item pushed whole to
// every other replica-set member. It is an analytic figure and moves no
// data; the chaos suite uses it as the denominator the digest protocol's
// antientropy_bytes_total is compared against.
func (n *Node) ReplicaFullSweepBytes() (uint64, error) {
	return n.co.SweepBytes(n.lifeCtx)
}

// markSweepNeeded requests an anti-entropy round on the next
// StabilizeOnce round, bypassing the AntiEntropyEvery cadence — called
// on every eviction so data re-homes as soon as a death is confirmed.
func (n *Node) markSweepNeeded() {
	n.mu.Lock()
	n.needSweep = true
	n.mu.Unlock()
}

// StabilizeOnce runs one stabilization round on every layer: verify the
// successor, adopt a closer one, refresh the successor list, notify,
// consult the layer's entry points, and re-home stored ring tables whose
// ownership moved. It finishes with a best-effort digest anti-entropy round on the
// AntiEntropyEvery cadence (or immediately after an eviction), so data
// re-homes and diverged replicas re-converge on the same clock that
// heals the rings.
func (n *Node) StabilizeOnce() error {
	for layer := 1; layer <= n.cfg.Depth; layer++ {
		if err := n.StabilizeLayer(layer); err != nil {
			return err
		}
	}
	if err := n.RepairRingTables(); err != nil {
		return err
	}
	// Route gossip rides the same cadence: one push-pull exchange with
	// the stabilized neighborhood per round, so one-hop table
	// convergence tracks ring health. The global ring's liveness requests
	// asked it already; only the neighbors they did not find equal are
	// probed.
	_ = n.RouteGossipOnce()
	n.mu.Lock()
	n.aeTick++
	due := n.needSweep || n.aeTick >= n.cfg.AntiEntropyEvery
	if due {
		n.aeTick = 0
		if n.needSweep {
			// A death since the liveness exchange: every peer gets a
			// digest, the chain walk's further steps ask no fold either.
			n.agreed, n.head = nil, chainLink{}
		}
		n.needSweep = false
	}
	n.mu.Unlock()
	if due {
		// Best-effort: a round blocked by an unreachable member retries on
		// the next round; it must not fail the stabilization round.
		_, _, _, _ = n.ReplicaAntiEntropyOnce()
	}
	return nil
}

// StabilizeLayer runs one stabilization round on a single layer (1 =
// global ring): Chord's stabilization of the successor list, then one
// consultation of the layer's entry points, which is at once the merge
// scan of a healthy ring, the re-anchor of one whose successor list died,
// the probe of a singleton for the rest of its ring and, on a lower ring,
// the re-announce of its ring table. Exposed separately so a harness can
// drive and time maintenance per layer.
func (n *Node) StabilizeLayer(layer int) error {
	if layer < 1 || layer > n.cfg.Depth {
		return fmt.Errorf("transport: layer %d out of range (depth %d)", layer, n.cfg.Depth)
	}
	n.mu.Lock()
	joined := n.joined
	n.mu.Unlock()
	if !joined {
		return nil // not part of an overlay yet; nothing to stabilize or re-anchor to
	}
	live := n.stabilizeSuccessors(layer)
	// A ring whose successor is the one last round settled on is asked only
	// what it cannot have told this node already; one that lost its
	// successor, is a singleton or just changed gets the full consultation.
	n.mu.Lock()
	ls := n.layers[layer-1]
	unsettled := live.Addr == "" || live.Addr == n.addr || live.Addr != ls.settled
	ls.settled = live.Addr
	n.mu.Unlock()
	if !n.adoptAnchor(layer, n.findAnchor(layer, unsettled), live) && live.Addr == "" {
		n.repairLayer(layer)
	}
	return nil
}

// stabilizeSuccessors is Chord's stabilization of one layer: drop a dead
// predecessor, find the first live successor, adopt its predecessor when
// that sits between, rebuild the successor list from its list and notify
// it — unless its reply already names this node its predecessor, which a
// notify cannot change. It returns the successor the round settled on —
// this node itself on a singleton ring, the zero peer when no listed
// successor answered. Its requests are liveness requests (askLive): on the
// global ring they double as the round's route-gossip probes.
//
// A global-ring neighbor this round stops referring to because it failed
// its call is a death confirmed here, with no walk and no eviction
// involved, and replicas need a new home just the same: the round's
// anti-entropy does not wait for its cadence. The reference goes with the
// flag, so a death is news once (compare evictLocal).
func (n *Node) stabilizeSuccessors(layer int) wire.Peer {
	self := n.Self()
	n.mu.Lock()
	ls := n.layers[layer-1]
	succ := append([]wire.Peer(nil), ls.succ...)
	pred := ls.pred
	chain := layer == 1 && n.chainRoundLocked()
	if layer == 1 {
		n.head = chainLink{}
	}
	n.mu.Unlock()
	// Drop a dead predecessor so a live one can be adopted (Chord's
	// check_predecessor). In a round whose anti-entropy walks the replica
	// chain the check is the walk's first step, a get_neighbors the walk
	// reuses (head), and every global-ring liveness request of the round
	// asks its target's replica fold.
	if pred.Addr != "" && pred.Addr != n.addr {
		check := wire.Request{Type: wire.TPing}
		if chain {
			check = wire.Request{Type: wire.TGetNeighbors, Layer: 1}
		}
		if resp, err := n.askLive(layer, pred.Addr, check, chain); err != nil {
			n.mu.Lock()
			if n.layers[layer-1].pred == pred {
				n.layers[layer-1].pred = wire.Peer{}
				n.needSweep = n.needSweep || layer == 1
				if n.suspectDead(pred.Addr) {
					// Fresh, confirmed failure evidence from the ping we
					// just lost: tombstone the peer in the one-hop table.
					n.recordEvictLocked(layer, pred.Addr)
				}
			}
			n.mu.Unlock()
		} else if chain && len(resp.Succ) > 0 {
			n.mu.Lock()
			n.head = chainLink{of: pred.Addr, pred: resp.Pred, succ: resp.Succ[0].Addr}
			n.mu.Unlock()
		}
	}
	// Find the first live successor and fetch its neighbor state.
	var s0 wire.Peer
	var nb wire.Response
	lost := false // a listed successor failed its call: the rebuilt list leaves it out
	for _, cand := range succ {
		resp, err := n.askLive(layer, cand.Addr, wire.Request{Type: wire.TGetNeighbors, Layer: layer}, chain)
		if err == nil {
			s0, nb = cand, resp
			break
		}
		lost = true
	}
	if s0.Addr == "" {
		// Every listed successor just failed a call, so each one's
		// suspicion counter grew; drop the entries the failure detector
		// now confirms dead. Without this a node whose whole list died
		// keeps the stale entries forever — nothing on the happy path
		// ever contacts them again — and can never collapse to the
		// singleton state repairLayer knows how to rebuild from.
		n.mu.Lock()
		kept := ls.succ[:0]
		for _, p := range ls.succ {
			if p.Addr == n.addr || !n.suspectDead(p.Addr) {
				kept = append(kept, p)
			} else {
				n.recordEvictLocked(layer, p.Addr)
				n.needSweep = n.needSweep || layer == 1
			}
		}
		ls.succ = kept
		n.mu.Unlock()
		return wire.Peer{}
	}
	// Adopt the successor's predecessor while it sits between us, up to
	// SuccListLen times: a burst of joins leaves a chain of joiners
	// before the successor, and walking it back in one round is what
	// lets a ring settle while joins keep coming (DESIGN §9). When we are
	// our own successor this adopts the first joiner that notified us
	// (Between(x, a, a) holds for every x != a). One that does not answer
	// is not adopted: the successor that did answer stands.
	for step := 0; step < n.cfg.SuccListLen && nb.Pred.Addr != "" && nb.Pred.Addr != n.addr &&
		id.Between(peerID(nb.Pred), n.id, peerID(s0)); step++ {
		resp, err := n.askLive(layer, nb.Pred.Addr, wire.Request{Type: wire.TGetNeighbors, Layer: layer}, chain)
		if err != nil {
			break
		}
		s0, nb = nb.Pred, resp
	}
	if s0.Addr == n.addr {
		// Still a singleton ring: own the whole identifier space. The
		// entry-point consultation that follows keeps probing for the
		// rest of the network — after a healed partition this is how an
		// isolated node finds its way back in.
		n.mu.Lock()
		if ls.pred.Addr == "" {
			ls.pred = self
		}
		n.mu.Unlock()
		return s0
	}
	// Rebuild the successor list from s0's list and notify s0 unless it
	// names this node already. Tail entries are pinged before adoption: a
	// departed node otherwise survives forever in the tails, because each
	// node rebuilds its list from its successor's equally stale copy and
	// nothing on the happy path ever contacts a tail entry again.
	list := []wire.Peer{s0}
	seen := map[string]bool{s0.Addr: true}
	for _, p := range nb.Succ {
		if len(list) >= n.cfg.SuccListLen {
			break
		}
		if p.Addr == "" || p.Addr == n.addr || seen[p.Addr] {
			continue
		}
		seen[p.Addr] = true
		if _, err := n.askLive(layer, p.Addr, wire.Request{Type: wire.TPing}, chain); err != nil {
			lost = lost || slices.Contains(succ, p)
			continue
		}
		list = append(list, p)
	}
	n.mu.Lock()
	ls.succ = list
	n.needSweep = n.needSweep || (lost && layer == 1)
	n.mu.Unlock()
	if nb.Pred.Addr != n.addr {
		_, _ = n.callBG(s0.Addr, wire.Request{Type: wire.TNotify, Layer: layer, Peer: self})
	}
	return s0
}

// chainLink is one answered step of the replica chain walk: the member
// that answered, its predecessor and its first successor.
type chainLink struct {
	of   string
	pred wire.Peer
	succ string
}

// chainRoundLocked reports whether this stabilization round ends in an
// anti-entropy round that walks the replica chain: one is due
// (StabilizeOnce's cadence, or a sweep was asked for), there is data to
// place, and the replica sets reach past the predecessor.
func (n *Node) chainRoundLocked() bool {
	return n.cfg.Replication.Factor > 1 && n.store.Len() > 0 &&
		(n.needSweep || n.aeTick+1 >= n.cfg.AntiEntropyEvery)
}

// findAnchor asks a layer's entry points for this node's key-space
// successor: the landmarks on the global ring, the ring table — which the
// same consultation re-announces this node in — on a lower ring. On a
// healthy ring the entry points name this node itself; after a healed
// partition they name a member of the other component. The zero peer
// means no entry point answered, or none needed asking.
//
// An unsettled global ring walks from every landmark until one names a
// successor. A settled one walks from one, the same every round (the
// node's identifier picks it, so a cluster's nodes spread over all of
// them), and a node that is itself a landmark from every other: two
// components that each hold a landmark are bridged by those landmarks, and
// a component that holds none by every one of its nodes, in the first
// round they can reach each other; the rest of the ring follows through
// stabilization and, once a successor changes, through the full walk. What
// a settled lower ring skips is enterRing's.
func (n *Node) findAnchor(layer int, unsettled bool) wire.Peer {
	n.mu.Lock()
	landmarks, names := n.landmarks, n.ringNames // assigned whole at join time, never written in place
	n.mu.Unlock()
	if layer == 1 {
		if at := slices.Index(landmarks, n.addr); at >= 0 {
			landmarks = slices.Delete(slices.Clone(landmarks), at, at+1)
		} else if !unsettled && len(landmarks) > 0 {
			mine := int(n.id[len(n.id)-1]) % len(landmarks)
			landmarks = landmarks[mine : mine+1]
		}
		for _, lm := range landmarks {
			if owner, _, err := n.walkOwner(n.lifeCtx, lm, 1, n.id); err == nil && owner.Addr != n.addr {
				return owner
			}
		}
		return wire.Peer{}
	}
	if layer-2 >= len(names) {
		return wire.Peer{}
	}
	e, err := n.enterRing(n.addr, layer, names[layer-2], unsettled)
	if err != nil {
		return wire.Peer{}
	}
	_ = n.announce(e)
	return e.succ
}

// adoptAnchor makes cand this node's successor when it is strictly closer
// than live, the successor stabilization just settled on; with none, or
// on a singleton ring, any candidate is closer. Adopting it is what
// splices two components of a healed partition back into one ring, and a
// dead successor list or a singleton cannot be the only triggers: a
// symmetric split leaves both components internally healthy. The
// candidate is prepended — the old successors are still clockwise-after
// it, so they keep their value as fallbacks until the next round rebuilds
// the list from the new successor's. Reports whether cand was adopted.
func (n *Node) adoptAnchor(layer int, cand, live wire.Peer) bool {
	if cand.Addr == "" || cand.Addr == n.addr || cand.Addr == live.Addr {
		return false
	}
	if live.Addr != "" && live.Addr != n.addr && !id.Between(peerID(cand), n.id, peerID(live)) {
		return false
	}
	n.mu.Lock()
	ls := n.layers[layer-1]
	list := []wire.Peer{cand}
	for _, p := range ls.succ {
		if p.Addr != cand.Addr && len(list) < n.cfg.SuccListLen {
			list = append(list, p)
		}
	}
	ls.succ = list
	n.mu.Unlock()
	_, _ = n.callBG(cand.Addr, wire.Request{Type: wire.TNotify, Layer: layer, Peer: n.Self()})
	n.nm.repairs.Inc()
	return true
}

// repairLayer is what is left of a repair when no listed successor
// answers and the entry points name nobody: fall back to the predecessor
// (this round's check_predecessor just heard from it), and only when the
// successor list has been fully purged by confirmed suspicion collapse to
// a singleton ring. Stale-but-unpurged entries are deliberately kept
// otherwise: when a partition heals they are exactly what re-merges the
// ring.
func (n *Node) repairLayer(layer int) {
	n.mu.Lock()
	ls := n.layers[layer-1]
	pred, purged := ls.pred, len(ls.succ) == 0
	n.mu.Unlock()
	if n.adoptAnchor(layer, pred, wire.Peer{}) || !purged {
		return
	}
	self := n.Self()
	n.mu.Lock()
	ls.succ = []wire.Peer{self}
	if ls.pred.Addr == "" {
		ls.pred = self
	}
	n.mu.Unlock()
	n.nm.repairs.Inc()
}

// storedTablesLocked returns the ring tables this node stores, ordered by
// (layer, name): n.tables is a map, and what is done per table must not
// depend on its iteration order.
func (n *Node) storedTablesLocked() []wire.RingTable {
	tables := make([]wire.RingTable, 0, len(n.tables))
	for _, t := range n.tables {
		tables = append(tables, t)
	}
	sort.Slice(tables, func(i, j int) bool {
		if tables[i].Layer != tables[j].Layer {
			return tables[i].Layer < tables[j].Layer
		}
		return tables[i].Name < tables[j].Name
	})
	return tables
}

// RepairRingTables keeps the ring tables this node stores fit to enter a
// ring by: it pings each table's boundary nodes, once per ring per round
// where every member used to, and blanks the slots that do not answer —
// the members' consultations refill them — then re-homes the tables whose
// responsible node changed as the global ring grew. Keeping each ring's own
// entry in its table current is StabilizeLayer's entry-point consultation.
func (n *Node) RepairRingTables() error {
	n.mu.Lock()
	tables := n.storedTablesLocked()
	n.mu.Unlock()
	for _, old := range tables {
		key := ringKey(old.Layer, old.Name)
		asked := map[string]bool{n.addr: true, "": true}
		var dead []string
		for _, p := range boundarySlots(&old) {
			if asked[p.Addr] {
				continue
			}
			asked[p.Addr] = true
			if _, err := n.callBG(p.Addr, wire.Request{Type: wire.TPing}); err != nil {
				dead = append(dead, p.Addr)
			}
		}
		n.mu.Lock()
		t, ok := n.tables[key] // as stored now: a member's put may have replaced it while the pings ran
		if ok && len(dead) > 0 {
			for _, addr := range dead {
				dropBoundary(&t, addr)
			}
			n.tables[key] = t
		}
		n.mu.Unlock()
		if !ok {
			continue
		}
		owner, _, err := n.walkOwner(n.lifeCtx, n.addr, 1, binning.RingID(t.Layer, t.Name))
		if err != nil || owner.Addr == n.addr {
			continue
		}
		if _, err := n.callBG(owner.Addr, wire.Request{Type: wire.TPutRingTable, Table: t}); err == nil {
			n.mu.Lock()
			delete(n.tables, key)
			n.mu.Unlock()
		}
	}
	return nil
}

// FixFingersOnce refreshes `count` fingers per layer (rotating), keeping
// lookup cost logarithmic. Consecutive fingers that fall inside the
// previous finger's range are filled without extra lookups. While a ring
// forms, a walk for successor(self + 2^k) can answer a peer less than 2^k
// past this node: its last step vouched that no member lies from the
// target round to that peer, a stretch this node is in. By that account
// the target's successor is this node, so the slot names it and a later
// refresh corrects it; a slot never names a too-near peer.
func (n *Node) FixFingersOnce(count int) error {
	for layer := 1; layer <= n.cfg.Depth; layer++ {
		for c := 0; c < count; c++ {
			n.mu.Lock()
			ls := n.layers[layer-1]
			k := ls.nextFix
			ls.nextFix = (ls.nextFix + 1) % id.Bits
			prev := wire.Peer{}
			if k > 0 {
				prev = ls.fingers.Get(k - 1)
			}
			n.mu.Unlock()
			target := id.AddPow2(n.id, uint(k))
			var owner wire.Peer
			if prev.Addr != "" && id.InOpenClosed(target, n.id, peerID(prev)) {
				owner = prev // reuse: successor(target) == previous finger
			} else {
				var err error
				owner, _, err = n.walkOwner(n.lifeCtx, n.addr, layer, target)
				if err != nil {
					// A stale finger or successor pointed the walk at a
					// departed peer. Skip this slot — stabilization drops
					// the dead reference and the next refresh succeeds —
					// rather than aborting the whole maintenance round.
					continue
				}
				if id.Between(peerID(owner), n.id, target) {
					owner = n.Self()
				}
			}
			n.mu.Lock()
			if fs := &n.layers[layer-1].fingers; owner.Addr != "" {
				fs.Set(k, owner)
			} else {
				fs.Clear(k)
			}
			n.mu.Unlock()
		}
	}
	return nil
}

// BuildAllFingers fills every finger of every layer (join-time bulk build;
// the range-reuse shortcut keeps this to O(log N) lookups per layer).
func (n *Node) BuildAllFingers() error {
	n.mu.Lock()
	for _, ls := range n.layers {
		ls.nextFix = 0
	}
	n.mu.Unlock()
	return n.FixFingersOnce(id.Bits)
}

// Leave departs the overlay gracefully (paper §3.3: "a node may leave the
// system"): in every layer the predecessor and successor are handed to
// each other, stored key/value pairs and ring tables migrate to the global
// successor, and the node stops serving. The node cannot be reused after
// Leave.
func (n *Node) Leave() error {
	// Tombstone our own one-hop membership and push it to the neighbors
	// that keep serving, before the ring handover dismantles them.
	n.announceLeaveRoutes()
	// Hand over per-layer neighbors, most local layer first.
	for layer := n.cfg.Depth; layer >= 1; layer-- {
		n.mu.Lock()
		ls := n.layers[layer-1]
		succ := append([]wire.Peer(nil), ls.succ...)
		pred := ls.pred
		n.mu.Unlock()
		var s0 wire.Peer
		for _, c := range succ {
			if c.Addr != "" && c.Addr != n.addr {
				if _, err := n.callBG(c.Addr, wire.Request{Type: wire.TPing}); err == nil {
					s0 = c
					break
				}
			}
		}
		if s0.Addr == "" {
			continue // singleton layer
		}
		_, _ = n.callBG(s0.Addr, wire.Request{Type: wire.TLeaveSucc, Layer: layer, Peer: pred})
		if pred.Addr != "" && pred.Addr != n.addr {
			handoff := append([]wire.Peer{s0}, succ...)
			_, _ = n.callBG(pred.Addr, wire.Request{Type: wire.TLeavePred, Layer: layer, Peers: handoff})
		}
	}
	// Migrate stored state to the global successor: the versioned items
	// travel in one THandoff batch (already key-sorted by Engine.Items,
	// so the handoff wire traffic is deterministic), the ring tables as
	// before.
	n.mu.Lock()
	gsucc := wire.Peer{}
	for _, c := range n.layers[0].succ {
		if c.Addr != "" && c.Addr != n.addr {
			gsucc = c
			break
		}
	}
	tables := n.storedTablesLocked()
	n.mu.Unlock()
	items := n.store.Items()
	if gsucc.Addr != "" {
		if len(items) > 0 {
			if _, err := n.callBG(gsucc.Addr, wire.Request{Type: wire.THandoff, Items: items}); err == nil {
				n.co.Metrics.HandoffItems.Add(uint64(len(items)))
			}
		}
		for _, t := range tables {
			_, _ = n.callBG(gsucc.Addr, wire.Request{Type: wire.TPutRingTable, Table: t})
		}
	}
	return n.Close()
}

// Neighbors returns a copy of a layer's successor list and predecessor
// for inspection.
func (n *Node) Neighbors(layer int) (succ []wire.Peer, pred wire.Peer, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ls, err := n.layerFor(layer)
	if err != nil {
		return nil, wire.Peer{}, err
	}
	return append([]wire.Peer(nil), ls.succ...), ls.pred, nil
}
