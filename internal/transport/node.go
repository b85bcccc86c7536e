// Package transport implements live HIERAS nodes speaking the wire
// protocol over TCP — the "real implementation" the paper lists as future
// work. Nodes join through the §3.3 protocol (landmark probing, ring-table
// lookup, per-ring integration), route hierarchically, and maintain their
// rings with Chord-style stabilization. The §3.3 way into a lower ring —
// route to the node storing the ring's table, pick a live boundary node,
// walk the ring to your successor, write the table back — exists once
// (enterRing, announce, adoptAnchor): a join runs it from the bootstrap,
// and every stabilization round runs it once more per ring as merge scan,
// re-anchor and table upkeep in one. Lookups are client-driven and
// iterative, so request handlers never issue nested RPCs and cannot
// deadlock.
//
// Config is the one configuration surface: zero fields take defaults and
// Start refuses a malformed one with an error wrapping ErrBadOptions.
//
// Latency probing is pluggable: RTTProber measures real round trips, while
// VirtualProber lets tests and demos place nodes on a synthetic coordinate
// plane (deterministic binning without sleeping). A probe is an exchange
// on the node's connection pool, beneath the retry, breaker and fault
// injection layers (see Prober).
package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/binning"
	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/replica"
	"repro/internal/routes"
	"repro/internal/wire"
)

// Route modes: the lookup acceleration tier a node runs with.
const (
	// RouteClassic walks the layered rings on every lookup (the paper's
	// procedure, no acceleration; the default).
	RouteClassic = "classic"
	// RouteOneHop answers from the gossip-maintained near-full route
	// table first: one verification RPC on the table's owner, falling
	// back to the classic walk on miss or staleness.
	RouteOneHop = "onehop"
)

// Config parametrises a live node. A value is a field here when two
// callers that are not tests set it differently, or it is a deployment
// setting; the binning ladder (binning.DefaultLadder(Depth)) and the
// eviction threshold (one fully retried failed call) are neither.
type Config struct {
	// Depth is the hierarchy depth (>= 1; 1 = plain Chord).
	Depth int
	// Landmarks are landmark node addresses. Required for Depth > 1 when
	// creating a network; joiners inherit the bootstrap's list when empty.
	Landmarks []string
	// SuccListLen is the per-layer successor list length (default 4).
	SuccListLen int
	// Coord is the node's position on the virtual latency plane, used by
	// VirtualProber and published via get_info.
	Coord [2]float64
	// Prober estimates latency to landmarks (default: VirtualProber over
	// Coord).
	Prober Prober
	// CallTimeout bounds each RPC attempt (default 3s). It becomes the
	// retry policy's PerAttempt timeout, the pool's dial timeout and the
	// write deadline of pooled and server-side connections.
	CallTimeout time.Duration
	// Retry configures the retry policy applied to every outgoing RPC:
	// exponential backoff with jitter, idempotency-aware (state-installing
	// writes are only retried when the request provably never reached the
	// peer). The zero value uses wire defaults; MaxAttempts 1 disables
	// retrying.
	Retry wire.RetryPolicy
	// Breaker configures the per-peer circuit breaker that doubles as the
	// failure-suspicion tracker feeding the TEvict path. The zero value
	// uses wire defaults; Threshold -1 disables it.
	Breaker wire.BreakerPolicy
	// WrapCaller, when non-nil, wraps the node's instrumented base caller
	// before the retry layer is stacked on top; fault-injection harnesses
	// (internal/faultnet) interpose here, so retries and breakers are
	// exercised against the injected faults. self is the node's own
	// listen address.
	WrapCaller func(self string, inner wire.Caller) wire.Caller
	// Metrics is the registry the node instruments itself against. Nil
	// creates a fresh per-node registry (reachable via Node.Metrics); a
	// registry must not be shared between nodes.
	Metrics *metrics.Registry
	// RouteMode selects the lookup acceleration tier: RouteClassic (also
	// the empty value) or RouteOneHop. RouteOneHop maintains a gossip-fed
	// near-full membership table of the global ring and answers lookups
	// from it with a single verification RPC; the table is disseminated
	// via TRouteGossip on the stabilize cadence.
	RouteMode string
	// Replication configures the replicated KV layer: replica factor,
	// write quorum and read quorum (see replica.Options). The zero value
	// uses the replica defaults (factor 3, majority writes, single-reader
	// reads).
	Replication replica.Options
	// AntiEntropyEvery runs the digest-based anti-entropy round on every
	// k-th StabilizeOnce round (default 1 = every round). Evictions
	// force a round immediately, so death-triggered repair does not
	// wait out the cadence.
	AntiEntropyEvery int
	// TTL is the lifetime stamped onto coordinated writes, on Clock. 0
	// means data never expires. Tombstoned deletes reuse TTL as their
	// garbage-collection grace period; it must exceed the cluster's
	// convergence time or a delete can be forgotten before every replica
	// learns it.
	TTL time.Duration
	// Clock is the node's protocol time (default wire.WallClock): retry
	// backoffs, breaker cool-downs, lease and tombstone expiry and
	// route-event stamps all read it. I/O deadlines and latency
	// measurements stay on the wall clock. In-process drivers pass one
	// wire.ManualClock to every node; every node of a cluster must share
	// one time base, because expiry compares stamps across nodes.
	Clock wire.Clock
	// Listener, when non-nil, is served instead of a fresh TCP listener;
	// its Addr().String() becomes the node's address. In-process harnesses
	// pass a wire.MemNet listener so node identifiers (derived from the
	// address) are identical on every run.
	Listener net.Listener
	// Dial, when non-nil, replaces TCP for every outgoing call and latency
	// probe. Pair it with Listener (wire.MemNet provides both ends).
	Dial wire.DialFunc
}

// ErrBadOptions reports an invalid Config: every validation failure
// wraps it, so callers can errors.Is once instead of matching message
// strings (the same contract the root package's hieras.ErrBadOptions
// provides for simulator options).
var ErrBadOptions = errors.New("transport: invalid options")

// validate rejects a malformed Config before Start defaults it. Zero
// still means "use the default" everywhere, so only values no default
// can stand in for are refused.
func (c Config) validate() error {
	if c.Depth < 0 {
		return fmt.Errorf("%w: depth %d, must be >= 1", ErrBadOptions, c.Depth)
	}
	if c.CallTimeout < 0 {
		return fmt.Errorf("%w: negative call timeout %v", ErrBadOptions, c.CallTimeout)
	}
	if c.SuccListLen < 0 {
		return fmt.Errorf("%w: successor list length %d, must be >= 1", ErrBadOptions, c.SuccListLen)
	}
	switch c.RouteMode {
	case "", RouteClassic, RouteOneHop:
	default:
		return fmt.Errorf("%w: route mode %q, want %s or %s",
			ErrBadOptions, c.RouteMode, RouteClassic, RouteOneHop)
	}
	if c.Replication.Factor < 0 {
		return fmt.Errorf("%w: replication factor %d, must be >= 1", ErrBadOptions, c.Replication.Factor)
	}
	factor := c.Replication.WithDefaults().Factor
	if q := c.Replication.WriteQuorum; q < 0 || q > factor {
		return fmt.Errorf("%w: write quorum %d outside [0, %d]", ErrBadOptions, q, factor)
	}
	if q := c.Replication.ReadQuorum; q < 0 || q > factor {
		return fmt.Errorf("%w: read quorum %d outside [0, %d]", ErrBadOptions, q, factor)
	}
	if c.Retry.MaxAttempts < 0 {
		return fmt.Errorf("%w: %d attempts per call, must be >= 1 (1 disables retrying)", ErrBadOptions, c.Retry.MaxAttempts)
	}
	if c.Retry.BaseBackoff < 0 {
		return fmt.Errorf("%w: negative retry backoff %v", ErrBadOptions, c.Retry.BaseBackoff)
	}
	if c.Retry.MaxBackoff != 0 && c.Retry.MaxBackoff < c.Retry.BaseBackoff {
		return fmt.Errorf("%w: max backoff %v below base backoff %v",
			ErrBadOptions, c.Retry.MaxBackoff, c.Retry.BaseBackoff)
	}
	if c.Breaker.Cooldown < 0 {
		return fmt.Errorf("%w: negative breaker cooldown %v", ErrBadOptions, c.Breaker.Cooldown)
	}
	if c.TTL < 0 {
		return fmt.Errorf("%w: negative ttl %v (use 0 to keep data forever)", ErrBadOptions, c.TTL)
	}
	if c.AntiEntropyEvery < 0 {
		return fmt.Errorf("%w: anti-entropy cadence %d, must be >= 1 stabilize rounds",
			ErrBadOptions, c.AntiEntropyEvery)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Depth == 0 {
		c.Depth = 2
	}
	if c.SuccListLen == 0 {
		c.SuccListLen = 4
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = 3 * time.Second
	}
	if c.AntiEntropyEvery == 0 {
		c.AntiEntropyEvery = 1
	}
	if c.Clock == nil {
		c.Clock = wire.WallClock
	}
	c.Replication = c.Replication.WithDefaults()
	return c
}

// layerState is one ring's routing state on a node.
type layerState struct {
	succ    []wire.Peer
	pred    wire.Peer
	fingers fingerTable
	nextFix int

	// What the last stabilization round learned, so this one asks only for
	// what may have changed since (see StabilizeLayer, enterRing).
	settled string         // successor stabilizeSuccessors settled on; "" = none answered
	storing wire.Peer      // lower ring: the node that answered the last table read as the table's owner
	table   wire.RingTable // lower ring: the table as the last completed consultation read it
}

// Node is a live HIERAS peer.
type Node struct {
	cfg    Config
	ladder binning.Ladder // binning.DefaultLadder(cfg.Depth); nil at depth 1
	id     id.ID
	addr   string
	ln     net.Listener

	mu        sync.Mutex
	layers    []*layerState // layers[0] = global ring, layers[l] = layer l+1
	ringNames []string      // per lower layer
	landmarks []string
	joined    bool                      // member of an overlay (CreateNetwork/Join succeeded); gates repair
	tables    map[string]wire.RingTable // key = ringKey(layer, name)
	aeTick    int                       // StabilizeOnce rounds since the last anti-entropy round
	needSweep bool                      // eviction observed; anti-entropy on the next round
	agreed    map[string]uint64         // global-ring neighbor -> route summary its last liveness reply matched (see askLive); taken by RouteGossipOnce

	closed  chan struct{}
	handled atomic.Int64 // requests received over the wire (also exported via the registry)
	wg      sync.WaitGroup

	// lifeCtx is cancelled by Close, so in-flight maintenance RPC chains
	// (stabilization, anti-entropy) abort promptly instead of stalling
	// shutdown.
	lifeCtx    context.Context
	lifeCancel context.CancelFunc

	connMu sync.Mutex
	conns  map[net.Conn]struct{} // live server-side sessions, force-closed on Close

	nm      *nodeMetrics
	store   *replica.Engine      // versioned local KV store
	co      *replica.Coordinator // quorum write/read/anti-entropy driver over the store
	routes  *routes.Table        // one-hop membership table; nil unless RouteMode == RouteOneHop
	retrier *wire.Retrier        // full outgoing chain: retrier → (injector) → instrumented pool
	pool    *wire.Pool
}

// NodeID derives a live node's identifier from its address.
func NodeID(addr string) id.ID { return hashTagged("live:", addr) }

// LiveKeyID derives the identifier of an application key (shared with the
// kv convention).
func LiveKeyID(key string) id.ID { return hashTagged("key:", key) }

// hashTagged is id.HashString(tag + s), hashed from a stack buffer: the
// concatenation and its []byte copy were two heap objects per call. Keys
// beyond the buffer (tag + s > 96 B) cost the one allocation append makes.
func hashTagged(tag, s string) id.ID {
	var stack [96]byte
	return id.HashBytes(append(append(stack[:0], tag...), s...))
}

// liveKeyBytes is LiveKeyID in the raw-array form the replica layer's
// range digests use.
func liveKeyBytes(key string) [20]byte { return [20]byte(LiveKeyID(key)) }

func ringKey(layer int, name string) string { return fmt.Sprintf("%d|%s", layer, name) }

func ringID(layer int, name string) id.ID {
	return id.HashString(fmt.Sprintf("ring:%d:%s", layer, name))
}

func peerID(p wire.Peer) id.ID { return id.ID(p.ID) }

// Start listens on listenAddr ("127.0.0.1:0" for tests) and serves the
// protocol. A malformed cfg is refused with an error wrapping
// ErrBadOptions; zero fields take their defaults. The node is not part of
// any network until CreateNetwork or Join is called.
func Start(listenAddr string, cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	var ladder binning.Ladder
	if cfg.Depth > 1 {
		var err error
		if ladder, err = binning.DefaultLadder(cfg.Depth); err != nil {
			return nil, err
		}
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", listenAddr)
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", listenAddr, err)
		}
	}
	n := &Node{
		cfg:    cfg,
		ladder: ladder,
		addr:   ln.Addr().String(),
		ln:     ln,
		store:  replica.NewEngine(),
		tables: make(map[string]wire.RingTable),
		closed: make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
	n.id = NodeID(n.addr)
	n.lifeCtx, n.lifeCancel = context.WithCancel(context.Background()) //lint:allow ctxflow the node lifecycle root: Close cancels it, and every maintenance chain derives from it
	n.store.Clock = cfg.Clock
	if cfg.Prober == nil {
		n.cfg.Prober = &VirtualProber{Self: cfg.Coord, Timeout: cfg.CallTimeout}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	n.nm = newNodeMetrics(reg, cfg.Depth)
	n.pool = wire.NewPool(wire.PoolOptions{
		Dial:     cfg.Dial,
		Timeout:  cfg.CallTimeout,
		ConnWrap: n.nm.wm.CountConn,
	})
	base := n.nm.wm.Wrap(n.pool)
	if cfg.WrapCaller != nil {
		base = cfg.WrapCaller(n.addr, base)
	}
	retry := cfg.Retry
	if retry.PerAttempt == 0 {
		retry.PerAttempt = cfg.CallTimeout
	}
	n.retrier = wire.NewRetrier(base, retry, cfg.Breaker, cfg.Clock, reg)
	if cfg.RouteMode == RouteOneHop {
		n.routes = routes.New()
	}
	n.co = &replica.Coordinator{
		Self:    n.addr,
		Opts:    cfg.Replication,
		Engine:  n.store,
		Resolve: n.resolveReplicaSet,
		Call:    n.call,
		Metrics: replica.NewMetrics(reg),
		KeyID:   liveKeyBytes,
		TTL:     cfg.TTL,

		Neighbors: n.replicaNeighbors,
		OwnerRead: n.ownerRead,
	}
	n.layers = make([]*layerState, cfg.Depth)
	for i := range n.layers {
		n.layers[i] = &layerState{}
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.addr }

// ID returns the node's identifier.
func (n *Node) ID() id.ID { return n.id }

// Self returns the node as a wire peer.
func (n *Node) Self() wire.Peer { return wire.Peer{Addr: n.addr, ID: [20]byte(n.id)} }

// SetLandmarks replaces the node's landmark address list. It must be
// called before CreateNetwork or Join; it exists because the first nodes
// of a network are usually the landmarks themselves, so their addresses
// are only known after they have started listening.
func (n *Node) SetLandmarks(landmarks []string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.Landmarks = append([]string(nil), landmarks...)
}

// RingNames returns the node's lower-layer ring names (nil before
// CreateNetwork/Join).
func (n *Node) RingNames() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, len(n.ringNames))
	copy(out, n.ringNames)
	return out
}

// Handled returns the number of requests received over the wire. A request
// this node addressed to itself is answered in-process (see call): it is
// not a message and is not counted here or by the served-RPC counters.
func (n *Node) Handled() int64 { return n.handled.Load() }

// observeServed counts one request received over the wire.
func (n *Node) observeServed(t wire.MsgType, ok bool) {
	n.handled.Add(1)
	n.nm.wm.ObserveServed(t, ok)
}

// Close stops serving. Outstanding handlers finish first.
func (n *Node) Close() error {
	select {
	case <-n.closed:
		return nil
	default:
	}
	close(n.closed)
	n.lifeCancel() // abort in-flight maintenance chains and anti-entropy rounds
	err := n.ln.Close()
	n.pool.Close()
	// Peers hold persistent pooled sessions to this node; their server
	// goroutines would otherwise block in a frame read until the idle
	// timeout. Force-close them — a session finishes the request it is
	// answering before its Serve returns.
	n.connMu.Lock()
	for c := range n.conns {
		_ = c.Close()
	}
	n.connMu.Unlock()
	n.wg.Wait()
	return err
}

// track registers a server-side connection for shutdown, or closes it
// immediately when the node is already shutting down.
func (n *Node) track(c net.Conn) bool {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	select {
	case <-n.closed:
		_ = c.Close()
		return false
	default:
	}
	n.conns[c] = struct{}{}
	return true
}

func (n *Node) untrack(c net.Conn) {
	n.connMu.Lock()
	delete(n.conns, c)
	n.connMu.Unlock()
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			select {
			case <-n.closed:
				return
			default:
				continue
			}
		}
		if !n.track(conn) {
			continue
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer n.untrack(conn)
			_ = wire.Serve(n.nm.wm.CountConn(conn), n.handle, wire.ServeOptions{
				WriteTimeout: n.cfg.CallTimeout,
				Observe:      n.observeServed,
			})
		}()
	}
}

// layerFor maps a wire layer number (1 = global) to state.
func (n *Node) layerFor(layer int) (*layerState, error) {
	if layer < 1 || layer > len(n.layers) {
		return nil, fmt.Errorf("layer %d out of range (depth %d)", layer, len(n.layers))
	}
	return n.layers[layer-1], nil
}

// ownsLocked reports whether this node owns key on the global ring: key
// lies in (global predecessor, self]. A node that does not know its
// predecessor claims nothing.
func (n *Node) ownsLocked(key id.ID) bool {
	gp := n.layers[0].pred
	return gp.Addr != "" && id.InOpenClosed(key, peerID(gp), n.id)
}

// handle answers one request from the node's own state, filling *resp,
// which it finds zeroed (so a failure is Err alone, OK false). It takes
// the node mutex and never performs outgoing RPCs, so it meets wire.Serve's
// handler contract: it runs on the session's reader. The request owns its
// memory (the codec's guarantee; call copies for a request that never
// crossed it), so handlers may keep what it carries. Fill responses field
// by field, never as a wire.Response literal: each literal takes a 576 B
// slot of its own in this frame, and the frame sits on the stack of every
// session's reader.
func (n *Node) handle(req *wire.Request, resp *wire.Response) {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch req.Type {
	case wire.TPing:
		resp.OK, resp.Self, resp.Found = true, n.selfLocked(), n.sameTableLocked(req.Key)

	case wire.TGetInfo:
		resp.OK, resp.Self, resp.Coord = true, n.selfLocked(), n.cfg.Coord
		resp.RingNames = make([]string, len(n.ringNames))
		copy(resp.RingNames, n.ringNames)
		resp.Landmarks = make([]string, len(n.landmarks))
		copy(resp.Landmarks, n.landmarks)

	case wire.TFindClosest:
		n.findClosestLocked(req, resp)

	case wire.TGetNeighbors:
		ls, err := n.layerFor(req.Layer)
		if err != nil {
			resp.Err = err.Error()
			return
		}
		resp.OK, resp.Self, resp.Pred, resp.Found = true, n.selfLocked(), ls.pred, n.sameTableLocked(req.Key)
		resp.Succ = make([]wire.Peer, len(ls.succ))
		copy(resp.Succ, ls.succ)

	case wire.TNotify:
		ls, err := n.layerFor(req.Layer)
		if err != nil {
			resp.Err = err.Error()
			return
		}
		cand := req.Peer
		if cand.Addr == "" {
			resp.Err = "notify without candidate"
			return
		}
		if ls.pred.Addr == "" || id.Between(peerID(cand), peerID(ls.pred), n.id) {
			ls.pred = cand
		}
		resp.OK = true

	case wire.TGetRingTable:
		// Owner vouches that the table, or its absence, is this node's to
		// report: a reader that kept this node as a hint (enterRing) skips
		// the global walk while the flag stands.
		resp.Table, resp.Found = n.tables[ringKey(req.Table.Layer, req.Table.Name)]
		resp.OK, resp.Owner = true, n.ownsLocked(ringID(req.Table.Layer, req.Table.Name))

	case wire.TPutRingTable:
		if req.Table.Name == "" || req.Table.Layer < 2 {
			resp.Err = fmt.Sprintf("invalid ring table %d:%q", req.Table.Layer, req.Table.Name)
			return
		}
		n.tables[ringKey(req.Table.Layer, req.Table.Name)] = req.Table
		resp.OK = true

	case wire.TStorePut:
		if len(req.Items) != 1 || req.Items[0].Key == "" {
			resp.Err = fmt.Sprintf("store_put wants exactly one keyed item, got %d", len(req.Items))
			return
		}
		switch {
		case req.Layer != 1:
			resp.Applied = n.store.ApplyBatch(req.Items)
		case n.ownsLocked(LiveKeyID(req.Items[0].Key)):
			// Ownership-checked put (see ownerRead): the owner stamps the
			// write past the version it holds and names the replica set.
			resp.Owner, resp.Succ = true, n.replicaSuccessorsLocked()
			resp.Version, resp.Applied = n.store.ApplyPast(req.Items[0])
		default: // any other node installs nothing and reports its version
			held, _ := n.store.Get(req.Items[0].Key)
			resp.Version = held.Version
		}
		resp.OK = true

	case wire.TStoreGet:
		resp.OK = true
		if req.Layer == 1 {
			// Ownership-checked read (see ownerRead): the destination check
			// of findClosestLocked's hierarchical branch, on the key's name.
			// A node that does not own the key says nothing about it.
			if !n.ownsLocked(LiveKeyID(req.Name)) {
				return
			}
			resp.Owner = true
			resp.Succ = n.replicaSuccessorsLocked()
		}
		it, ok := n.store.Get(req.Name)
		if !ok {
			return
		}
		// Tombstones and lifecycle stamps are reported as held: quorum
		// readers must see a fresher tombstone outrank stale live copies,
		// or a delete would resurrect through read-repair.
		resp.Value = make([]byte, len(it.Value))
		copy(resp.Value, it.Value)
		resp.Found, resp.Version, resp.Writer = true, it.Version, it.Writer
		resp.Expire, resp.Tombstone = it.Expire, it.Tombstone

	case wire.TReplicate, wire.THandoff:
		for _, it := range req.Items {
			if it.Key == "" {
				resp.Err = fmt.Sprintf("%s with unkeyed item", req.Type)
				return
			}
		}
		resp.OK, resp.Applied = true, n.store.ApplyBatch(req.Items)

	case wire.TDigest:
		// Anti-entropy digest: fold local items in the arc (Key, KeyHi]
		// into the fixed bucket layout. Pure read over the engine — no
		// outgoing RPCs, preserving the deadlock-free handler contract.
		resp.OK, resp.Digests = true, n.store.RangeDigest(liveKeyBytes, req.Key, req.KeyHi)

	case wire.TSyncPull:
		if len(req.Buckets) == 0 {
			resp.Err = "sync_pull without bucket list"
			return
		}
		for _, b := range req.Buckets {
			if b >= replica.DigestBuckets {
				resp.Err = fmt.Sprintf("sync_pull bucket %d out of range (protocol has %d)", b, replica.DigestBuckets)
				return
			}
		}
		resp.OK, resp.Items = true, n.store.RangeItems(liveKeyBytes, req.Key, req.KeyHi, req.Buckets)

	case wire.TRouteGossip:
		// Gossip for the one-hop tables (see pushRoutes): merge what the
		// request carries — nothing, in a probe — and say "same" when the
		// summaries then agree, else answer with the events the request
		// does not supersede (for a probe, the whole set). All local table
		// work, so the no-outgoing-RPC handler contract holds.
		resp.OK = true
		if n.routes == nil {
			// Not running the tier: nothing to reconcile, which is what
			// "same" tells a prober (a bare OK would draw a push-back).
			resp.Found = true
			return
		}
		resp.Applied = n.routes.ApplyAll(req.Events)
		if summaryKey(n.routes.Summary()) == req.Key {
			resp.Found = true
			return
		}
		resp.Events = n.routes.Diff(req.Events)

	case wire.TLeaveSucc:
		ls, err := n.layerFor(req.Layer)
		if err != nil {
			resp.Err = err.Error()
			return
		}
		if req.Peer.Addr != "" && req.Peer.Addr != n.addr {
			ls.pred = req.Peer
		} else {
			ls.pred = wire.Peer{}
		}
		resp.OK = true

	case wire.TEvict:
		ls, err := n.layerFor(req.Layer)
		if err != nil {
			resp.Err = err.Error()
			return
		}
		dead := req.Peer.Addr
		if dead == "" || dead == n.addr {
			resp.Err = fmt.Sprintf("invalid eviction target %q", dead)
			return
		}
		purgePeerLocked(ls, dead)
		n.recordEvictLocked(req.Layer, dead)
		resp.OK = true

	case wire.TLeavePred:
		ls, err := n.layerFor(req.Layer)
		if err != nil {
			resp.Err = err.Error()
			return
		}
		list := make([]wire.Peer, 0, len(req.Peers))
		for _, p := range req.Peers {
			if p.Addr != "" && p.Addr != n.addr {
				list = append(list, p)
			}
		}
		if len(list) == 0 {
			list = []wire.Peer{n.selfLocked()}
		}
		ls.succ = list
		resp.OK = true

	default:
		resp.Err = fmt.Sprintf("unknown message type %v", req.Type)
	}
}

func (n *Node) selfLocked() wire.Peer { return wire.Peer{Addr: n.addr, ID: [20]byte(n.id)} }

// sameTableLocked answers the route summary a liveness request carries in
// Key (see askLive) the way the TRouteGossip handler answers a probe: a
// summary equal to this node's, or any summary when the node runs no
// table, is "same". A request without one is not asking.
func (n *Node) sameTableLocked(key [20]byte) bool {
	return key != [20]byte{} && (n.routes == nil || summaryKey(n.routes.Summary()) == key)
}

// replicaSuccessorsLocked returns the other members of the replica sets
// this node owns: the first Factor-1 distinct global successors.
func (n *Node) replicaSuccessorsLocked() []wire.Peer {
	want := n.cfg.Replication.Factor - 1
	out := make([]wire.Peer, 0, want)
	for _, p := range n.layers[0].succ {
		if len(out) == want {
			break
		}
		if p.Addr != n.addr && !slices.Contains(out, p) {
			out = append(out, p)
		}
	}
	return out
}

// purgePeerLocked removes every reference to a dead address from one
// layer's fingers, successor list and predecessor (Chord's timeout
// handling; shared by the TEvict handler and local eviction). It reports
// whether there was one.
func purgePeerLocked(ls *layerState, dead string) (purged bool) {
	purged = ls.fingers.purge(dead)
	kept := ls.succ[:0]
	for _, s := range ls.succ {
		if s.Addr != dead {
			kept = append(kept, s)
		}
	}
	purged = purged || len(kept) < len(ls.succ)
	ls.succ = kept
	if ls.pred.Addr == dead {
		ls.pred = wire.Peer{}
		purged = true
	}
	return purged
}

// evictLocal purges a suspected-dead peer from this node's own routing
// state in one layer, so a degraded lookup restarting from self does not
// immediately walk back into the dead hop.
func (n *Node) evictLocal(layer int, dead string) {
	if dead == "" || dead == n.addr {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	purged := false
	if ls, err := n.layerFor(layer); err == nil {
		purged = purgePeerLocked(ls, dead)
	}
	// A death is news once: replicas need a new home when a reference went
	// or a tombstone was stamped, not every time a walk meets the same
	// dead address again (a landmark that is down is met every round).
	if n.recordEvictLocked(layer, dead) || purged {
		n.needSweep = true
	}
}

// recordEvictLocked stamps an eviction tombstone into the one-hop table
// on fresh failure evidence for a peer. The table tracks the global ring
// only (see routeEvent), so only layer-1 evidence is recorded. A subject
// that is already a departure is left alone: re-stamping on every
// repeated failure would push stamps arbitrarily far ahead of the clock,
// and a runaway tombstone can shadow the peer's genuine rejoin. It reports
// whether a tombstone was stamped.
func (n *Node) recordEvictLocked(layer int, dead string) bool {
	if n.routes == nil || layer != 1 || dead == "" || dead == n.addr {
		return false
	}
	if cur, ok := n.routes.Latest(1, "", dead); ok && cur.Kind != wire.RouteJoin {
		return false
	}
	n.routeEvent(wire.Peer{Addr: dead, ID: [20]byte(NodeID(dead))}, wire.RouteEvict)
	return true
}

// findClosestLocked is one iterative routing step in a layer (paper §3.2):
// report ownership, ring-predecessor termination, or the closest preceding
// finger toward the key.
func (n *Node) findClosestLocked(req *wire.Request, resp *wire.Response) {
	ls, err := n.layerFor(req.Layer)
	if err != nil {
		resp.Err = err.Error()
		return
	}
	key := id.ID(req.Key)
	var owner bool
	if req.Hierarchical {
		// Destination check of the multi-layer procedure (paper §3.2): am
		// I the key's owner in the GLOBAL ring? Only the first node of a
		// layer walk can own the key, so this matches the oracle overlay's
		// between-layer check exactly.
		owner = n.ownsLocked(key)
	} else {
		// Ring-local shortcut for join-time walks: this node is the key's
		// successor within the queried ring.
		owner = ls.pred.Addr != "" && id.InOpenClosed(key, peerID(ls.pred), n.id)
	}
	if owner {
		resp.OK, resp.Next, resp.Done, resp.Owner, resp.Self = true, n.selfLocked(), true, true, n.selfLocked()
		return
	}
	// An eviction can purge the last entry of a joined node's lower-ring
	// list; until the next stabilization round re-anchors or collapses
	// the ring, answer as the singleton it is about to become, so the
	// caller climbs a layer (or a joiner adopts this node). The global
	// ring decides ownership and must not guess: there an empty list
	// stays a refusal, like a layer that never joined.
	var succ0 wire.Peer
	switch {
	case len(ls.succ) > 0:
		succ0 = ls.succ[0]
	case n.joined && req.Layer > 1:
		succ0 = n.selfLocked()
	default:
		resp.Err = fmt.Sprintf("layer %d not joined", req.Layer)
		return
	}
	resp.OK, resp.Next, resp.Self = true, succ0, n.selfLocked()
	if id.InOpenClosed(key, n.id, peerID(succ0)) {
		resp.Done = true
		return
	}
	// Closest preceding finger, falling back to the successor.
	if f, ok := ls.fingers.closestPreceding(n.addr, n.id, key); ok {
		resp.Next = f
	}
}
