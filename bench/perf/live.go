package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/id"
	"repro/internal/replica"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Live-cluster constants shared by the four live workloads.
const (
	valueBytes    = 256
	replicaFactor = 3
	maxConverge   = 40 // stabilise rounds before set-up gives up on a fixpoint
	readBackKeys  = 256
)

// counters is what the harness counts from outside the program, at the
// seams transport.Config already exposes: RPC attempts by type at
// WrapCaller, bytes written and dials at Dial and Listener.
type counters struct {
	rpcs  [32]atomic.Uint64 // indexed by wire.MsgType
	bytes atomic.Uint64     // written to connections by all nodes, both directions
	dials atomic.Uint64
	index map[string]int // address -> node index
	tr    atomic.Pointer[tracer]
}

func (k *counters) msgs() (n uint64) {
	for i := range k.rpcs {
		n += k.rpcs[i].Load()
	}
	return n
}

// wrapCaller counts one attempt per call and, while a traced trial
// runs, records it as an rpc span under the op in flight.
func (k *counters) wrapCaller(self string, inner wire.Caller) wire.Caller {
	from := k.index[self]
	return wire.CallerFunc(func(ctx context.Context, addr string, req wire.Request) (wire.Response, error) {
		k.rpcs[req.Type].Add(1)
		tr := k.tr.Load()
		if tr == nil || !tr.on.Load() {
			return inner.Call(ctx, addr, req)
		}
		t0 := tr.now()
		resp, err := inner.Call(ctx, addr, req)
		tr.child(kindRPC, uint8(req.Type), from, k.index[addr], t0)
		return resp, err
	})
}

// countConn counts the bytes a node writes to a connection. It counts
// before the write: a reply's bytes are then on the books before the
// caller can see the reply, so a count read between two ops is exact.
type countConn struct {
	net.Conn
	out *atomic.Uint64
}

func (c *countConn) Write(p []byte) (int, error) {
	c.out.Add(uint64(len(p)))
	return c.Conn.Write(p)
}

func (k *counters) wrapDial(inner wire.DialFunc) wire.DialFunc {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := inner(addr, timeout)
		if err != nil {
			return nil, err
		}
		k.dials.Add(1)
		return &countConn{Conn: c, out: &k.bytes}, nil
	}
}

type countListener struct {
	net.Listener
	out *atomic.Uint64
}

func (l countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countConn{Conn: c, out: l.out}, nil
}

// clusterOpts is the recipe of one live world.
type clusterOpts struct {
	tcp       bool
	routeMode string
	keys      int  // preloaded keys; 0 = no KV data
	settle    bool // stabilise to a fixpoint again after the preload
}

// cluster is a live HIERAS network with a fixed ring layout: MemNet
// names n0..n31 or loopback TCP on fixed ports. Node ids hash the
// address, so an ephemeral port would reshuffle the ring every run.
type cluster struct {
	cfg    config
	k      *counters
	nodes  []*transport.Node
	addrs  []string
	keys   []string
	values [][]byte
	rounds int // stabilise rounds set-up needed to reach its fixpoint

	// Registry counters at the end of set-up, so Layers reports deltas.
	base       map[string]float64
	setupDials uint64
	msgs0      uint64
	bytes0     uint64
}

// nodeCoord places node i in one of four clusters on the virtual
// latency plane, so the default depth-2 ladder bins each quarter of the
// nodes into its own lower ring ("02", "20", "12", "21"). Nodes 0 and 1
// are the landmarks.
func nodeCoord(i int) [2]float64 {
	jitter := float64(i) / 100
	switch i % 4 {
	case 0:
		return [2]float64{jitter, 0}
	case 1:
		return [2]float64{1000 - jitter, 0}
	case 2:
		return [2]float64{50 + jitter, 0}
	default:
		return [2]float64{950 - jitter, 0}
	}
}

func tcpDial(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

// genKV derives the key universe and the preloaded values from the seed.
func genKV(seed int64, keys int) ([]string, [][]byte, error) {
	gen, err := workload.NewUniform(seed, 1)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	names := make([]string, keys)
	values := make([][]byte, keys)
	for i, r := range gen.Batch(keys) {
		names[i] = r.Key.String()
		values[i] = make([]byte, valueBytes)
		rng.Read(values[i])
	}
	return names, values, nil
}

// startCluster generates the KV inputs, then times the program's own
// set-up: start, join, stabilise to a snapshot fixpoint, build fingers,
// preload, and (for maintain) stabilise to a fixpoint again.
func startCluster(cfg config, o clusterOpts) (*cluster, float64, error) {
	cl := &cluster{cfg: cfg, k: &counters{index: map[string]int{}}}
	if o.keys > 0 {
		var err error
		if cl.keys, cl.values, err = genKV(cfg.seed, o.keys); err != nil {
			return nil, 0, err
		}
	}
	t0 := time.Now()
	if err := cl.start(o); err != nil {
		cl.Close()
		return nil, 0, err
	}
	setup := time.Since(t0).Seconds()
	cl.setupDials = cl.k.dials.Load()
	cl.msgs0, cl.bytes0 = cl.k.msgs(), cl.k.bytes.Load()
	cl.base = cl.registry()
	return cl, setup, nil
}

func (cl *cluster) start(o clusterOpts) error {
	n := cl.cfg.nodes
	mem := wire.NewMemNet()
	dial := cl.k.wrapDial(mem.Dial)
	if o.tcp {
		dial = cl.k.wrapDial(tcpDial)
	}
	for i := 0; i < n; i++ {
		addr := "n" + strconv.Itoa(i)
		if o.tcp {
			addr = "127.0.0.1:" + strconv.Itoa(cl.cfg.portBase+i)
		}
		cl.addrs = append(cl.addrs, addr)
		cl.k.index[addr] = i
	}
	for i, addr := range cl.addrs {
		var ln net.Listener
		var err error
		if o.tcp {
			// A busy port fails the run: relocating would move the node on
			// the ring and change every count.
			ln, err = net.Listen("tcp", addr)
		} else {
			ln, err = mem.Listen(addr)
		}
		if err != nil {
			return fmt.Errorf("listen %s: %w", addr, err)
		}
		nd, err := transport.Start("", transport.Config{
			Depth:            2,
			Landmarks:        cl.addrs[:2],
			Coord:            nodeCoord(i),
			Retry:            wire.RetryPolicy{MaxAttempts: 2},
			Breaker:          wire.BreakerPolicy{Threshold: -1},
			RouteMode:        o.routeMode,
			Replication:      replica.Options{Factor: replicaFactor, WriteQuorum: 2, ReadQuorum: 2},
			AntiEntropyEvery: 1,
			WrapCaller:       cl.k.wrapCaller,
			Listener:         countListener{ln, &cl.k.bytes},
			Dial:             dial,
		})
		if err != nil {
			_ = ln.Close()
			return err
		}
		cl.nodes = append(cl.nodes, nd)
	}
	if err := cl.nodes[0].CreateNetwork(); err != nil {
		return err
	}
	// The cluster so far runs one maintenance round after each join, as
	// nodes with a stabilise loop would; joining all 31 first leaves
	// successor chains that take 33 rounds to straighten instead of 2.
	for i, nd := range cl.nodes[1:] {
		if err := nd.Join(cl.addrs[0]); err != nil {
			return fmt.Errorf("join %s: %w", nd.Addr(), err)
		}
		if err := round(cl.nodes[:i+2]); err != nil {
			return err
		}
	}
	if err := cl.converge(); err != nil {
		return err
	}
	for _, nd := range cl.nodes {
		if err := nd.BuildAllFingers(); err != nil {
			return err
		}
	}
	if len(cl.keys) == 0 {
		return nil
	}
	for i, key := range cl.keys {
		if err := cl.nodes[i%n].Put(context.Background(), key, cl.values[i]); err != nil {
			return fmt.Errorf("preload %d: %w", i, err)
		}
	}
	if !o.settle {
		return nil
	}
	return cl.converge()
}

// round runs one full maintenance round: every node's StabilizeOnce, in
// address order.
func round(nodes []*transport.Node) error {
	for _, nd := range nodes {
		if err := nd.StabilizeOnce(); err != nil {
			return fmt.Errorf("stabilize %s: %w", nd.Addr(), err)
		}
	}
	return nil
}

func (cl *cluster) snapshots() []transport.Snapshot {
	out := make([]transport.Snapshot, len(cl.nodes))
	for i, nd := range cl.nodes {
		out[i] = nd.Snapshot()
	}
	return out
}

// converge runs rounds until one leaves every node's snapshot (rings,
// ring tables, route tables, stored items) unchanged.
func (cl *cluster) converge() error {
	prev := cl.snapshots()
	for r := 0; r < maxConverge; r++ {
		if err := round(cl.nodes); err != nil {
			return err
		}
		cl.rounds++
		cur := cl.snapshots()
		if reflect.DeepEqual(prev, cur) {
			return nil
		}
		prev = cur
	}
	return fmt.Errorf("no fixpoint after %d stabilise rounds", maxConverge)
}

func (cl *cluster) attach(tr *tracer) {
	tr.names = cl.addrs
	cl.k.tr.Store(tr)
}

func (cl *cluster) Counts() (float64, float64) {
	return float64(cl.k.msgs() - cl.msgs0), float64(cl.k.bytes.Load() - cl.bytes0)
}

func (cl *cluster) Close() {
	for _, nd := range cl.nodes {
		_ = nd.Close()
	}
}

// registry sums every un-labelled counter over the nodes' registries.
func (cl *cluster) registry() map[string]float64 {
	sum := map[string]float64{}
	for _, nd := range cl.nodes {
		var b strings.Builder
		if _, err := nd.Metrics().WriteTo(&b); err != nil {
			continue
		}
		for _, line := range strings.Split(b.String(), "\n") {
			name, val, ok := strings.Cut(line, " ")
			if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
				continue
			}
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				sum[name] += v
			}
		}
	}
	return sum
}

// Layers reports what the spans and the nodes' own registries say
// about the transport, wire, routes and replica layers. It returns the
// registry reader, for the counters only one workload cares about.
func (cl *cluster) layers(tr *tracer, tracedOps, totalOps int, out map[string]float64) (delta func(name string) float64) {
	tr.rpcMetrics(tracedOps, out)
	now := cl.registry()
	delta = func(name string) float64 { return now[name] - cl.base[name] }
	msgs, wireBytes := cl.Counts()
	out["transport.converge_rounds"] = float64(cl.rounds)
	out["wire.bytes_per_rpc"] = wireBytes / msgs
	out["wire.dials_per_op"] = float64(cl.k.dials.Load()-cl.setupDials) / float64(totalOps)
	out["wire.setup_dials"] = float64(cl.setupDials)
	out["wire.retries_per_op"] = delta("wire_retries_total") / float64(totalOps)
	if l := delta("lookups_total"); l > 0 {
		out["routes.onehop_hit_ratio"] = delta("onehop_hits_total") / l
	}
	return delta
}

// ringOwners returns, for each key, the index of the node owning it: the
// successor of the key among the sorted node ids, computed by the harness
// alone.
func (cl *cluster) ringOwners(keys []id.ID) []int {
	order := make([]int, len(cl.addrs))
	ids := make([]id.ID, len(cl.addrs))
	for i, addr := range cl.addrs {
		order[i], ids[i] = i, transport.NodeID(addr)
	}
	sort.Slice(order, func(a, b int) bool { return ids[order[a]].Less(ids[order[b]]) })
	out := make([]int, len(keys))
	for j, key := range keys {
		i := sort.Search(len(order), func(k int) bool { return !ids[order[k]].Less(key) })
		out[j] = order[i%len(order)]
	}
	return out
}

// opKeys draws the key index of every op of every trial (the warm-up
// is trial 0): op g of trial t uses opKeys[t*ops+g].
func opKeys(cfg config, ops, keys int) []int {
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x0b5))
	out := make([]int, ops*(cfg.trials+1))
	for i := range out {
		out[i] = rng.Intn(keys)
	}
	return out
}

// walkWorld is lookup-walk: classic hierarchical lookups over MemNet,
// each op for a fresh uniform key. (A 4096-key universe made msgs_per_op
// follow the draw: 0.7 % between seeds, above its bound.)
type walkWorld struct {
	*cluster
	ops  int
	ids  []id.ID // key per op, all trials
	want []int   // owner node index per op
}

func buildWalk(cfg config, ops int) (world, float64, error) {
	gen, err := workload.NewUniform(cfg.seed, 1)
	if err != nil {
		return nil, 0, err
	}
	cl, setup, err := startCluster(cfg, clusterOpts{routeMode: transport.RouteClassic})
	if err != nil {
		return nil, 0, err
	}
	w := &walkWorld{cluster: cl, ops: ops}
	for _, r := range gen.Batch(ops * (cfg.trials + 1)) {
		w.ids = append(w.ids, r.Key)
	}
	w.want = cl.ringOwners(w.ids)
	if cfg.plantWrong {
		w.want[ops] = (w.want[ops] + 1) % len(cl.nodes)
	}
	return w, setup, nil
}

// Op looks the key up from a rotating origin.
func (w *walkWorld) Op(trial, g int) bool {
	i := trial*w.ops + g
	res, err := w.nodes[g%len(w.nodes)].Lookup(context.Background(), w.ids[i])
	return err == nil && res.Owner.Addr == w.addrs[w.want[i]]
}

func (w *walkWorld) Verify() (int, int) { return 0, 0 }

func (w *walkWorld) Layers(tr *tracer, tracedOps, totalOps int, out map[string]float64) {
	w.layers(tr, tracedOps, totalOps, out)
	codecLayers(w.cfg.microTime, out)
	out["wire.pool.call_ns.mem"], out["wire.pool.call_allocs"] = poolCall(w.cfg.microTime, false)
}

// kvWorld is kv-get and kv-put: quorum reads or writes over loopback
// TCP with one-hop routing, against preloaded keys.
type kvWorld struct {
	*cluster
	put   bool
	ops   int
	opKey []int
	// last[k] is the (trial, g) stamp of the value last written to key k;
	// zero means the preloaded value still stands.
	last [][2]int
	buf  []byte // value scratch
}

func buildKV(put bool) func(cfg config, ops int) (world, float64, error) {
	return func(cfg config, ops int) (world, float64, error) {
		keys := cfg.keys
		if keys == 0 {
			keys = 4096
		}
		cl, setup, err := startCluster(cfg, clusterOpts{
			tcp: true, routeMode: transport.RouteOneHop, keys: keys,
		})
		if err != nil {
			return nil, 0, err
		}
		w := &kvWorld{cluster: cl, put: put, ops: ops, opKey: opKeys(cfg, ops, keys), last: make([][2]int, keys), buf: make([]byte, valueBytes)}
		return w, setup, nil
	}
}

// fresh writes the value op g of the given trial stores under key k into
// dst: the preloaded bytes with the first 16 replaced by the stamp.
func (w *kvWorld) fresh(dst []byte, k, trial, g int) []byte {
	copy(dst, w.values[k])
	binary.BigEndian.PutUint64(dst[0:8], uint64(trial))
	binary.BigEndian.PutUint64(dst[8:16], uint64(g))
	return dst
}

func (w *kvWorld) expected(k int) []byte {
	if w.cfg.plantWrong && k == w.opKey[w.ops] {
		return nil // a value nobody wrote
	}
	if w.last[k] == [2]int{} {
		return w.values[k]
	}
	return w.fresh(make([]byte, valueBytes), k, w.last[k][0], w.last[k][1])
}

func (w *kvWorld) Op(trial, g int) bool {
	k := w.opKey[trial*w.ops+g]
	nd := w.nodes[g%len(w.nodes)]
	if !w.put {
		v, err := nd.Get(context.Background(), w.keys[k])
		return err == nil && bytes.Equal(v, w.expected(k))
	}
	// trial+1 keeps the warm-up's stamp distinct from "never written".
	if err := nd.Put(context.Background(), w.keys[k], w.fresh(w.buf, k, trial+1, g)); err != nil {
		return false
	}
	w.last[k] = [2]int{trial + 1, g}
	return true
}

// Verify reads a seeded sample of keys back through a node other than
// the one that wrote them and expects the value last written.
func (w *kvWorld) Verify() (checks, failed int) {
	rng := rand.New(rand.NewSource(w.cfg.seed ^ 0x7eadbac))
	for i := 0; i < readBackKeys; i++ {
		op := w.ops // the first measured op, then a seeded sample
		if i > 0 {
			op = rng.Intn(len(w.opKey))
		}
		k := w.opKey[op]
		nd := w.nodes[(op%w.ops+1)%len(w.nodes)]
		v, err := nd.Get(context.Background(), w.keys[k])
		checks++
		if err != nil || !bytes.Equal(v, w.expected(k)) {
			failed++
		}
	}
	return checks, failed
}

func (w *kvWorld) Layers(tr *tracer, tracedOps, totalOps int, out map[string]float64) {
	w.layers(tr, tracedOps, totalOps, out)
	d := w.cfg.microTime
	snap := w.nodes[0].Snapshot()
	if w.put {
		out["replica.engine.apply_ns"] = engineApplyNs(d, snap.Items)
		return
	}
	out["wire.pool.call_ns.tcp"], _ = poolCall(d, true)
	out["replica.engine.get_ns"] = engineGetNs(d, snap.Items)
	out["routes.owner_ns"] = routesOwnerNs(d, snap.Routes, w.keys)
}

// maintainWorld is maintain: the background bill with no foreground
// traffic. One op is one full cluster round.
type maintainWorld struct {
	*cluster
	fixpoint []transport.Snapshot
	// The traced round is driven as its four public parts; these
	// accumulate each part's time and RPC attempts.
	partNs   [4]int64
	partRPCs [4]uint64
}

var maintainParts = [...]string{
	"transport.stabilize_layer", "transport.repair_ring_tables", "transport.route_gossip", "replica.antientropy",
}

func buildMaintain(cfg config, _ int) (world, float64, error) {
	keys := cfg.keys
	if keys == 0 {
		keys = 1024
	}
	cl, setup, err := startCluster(cfg, clusterOpts{routeMode: transport.RouteOneHop, keys: keys, settle: true})
	if err != nil {
		return nil, 0, err
	}
	w := &maintainWorld{cluster: cl, fixpoint: cl.snapshots()}
	if cfg.plantWrong {
		w.fixpoint[0].Keys = nil
	}
	return w, setup, nil
}

func (w *maintainWorld) Op(_, _ int) bool {
	tr := w.k.tr.Load()
	if tr == nil || !tr.on.Load() {
		return round(w.nodes) == nil
	}
	// StabilizeOnce, taken apart: the same calls in the same order, each
	// part timed and its RPC attempts counted.
	for i, nd := range w.nodes {
		parts := [4]func() error{
			func() error {
				for layer := 1; layer <= 2; layer++ {
					if err := nd.StabilizeLayer(layer); err != nil {
						return err
					}
				}
				return nil
			},
			nd.RepairRingTables,
			nd.RouteGossipOnce,
			func() error { _, _, _, err := nd.ReplicaAntiEntropyOnce(); return err },
		}
		for p, f := range parts {
			t0, m0 := tr.now(), w.k.msgs()
			if err := f(); err != nil {
				return false
			}
			tr.child(kindPart, uint8(p), i, -1, t0)
			w.partNs[p] += tr.now() - t0
			w.partRPCs[p] += w.k.msgs() - m0
		}
	}
	return true
}

// Verify checks that the measured rounds were idle ones: every snapshot
// still equals the set-up fixpoint, and every key has exactly Factor
// local copies.
func (w *maintainWorld) Verify() (checks, failed int) {
	for i, s := range w.snapshots() {
		checks++
		if !reflect.DeepEqual(s, w.fixpoint[i]) {
			failed++
		}
	}
	for _, key := range w.keys {
		copies := 0
		for _, nd := range w.nodes {
			if _, ok := nd.GetLocal(key); ok {
				copies++
			}
		}
		checks++
		if copies != replicaFactor {
			failed++
		}
	}
	return checks, failed
}

func (w *maintainWorld) Layers(tr *tracer, tracedOps, totalOps int, out map[string]float64) {
	delta := w.layers(tr, tracedOps, totalOps, out)
	_, wireBytes := w.Counts()
	gossip := delta("route_gossip_bytes_total")
	out["routes.gossip_bytes_per_round"] = gossip / float64(totalOps)
	out["routes.gossip_share"] = gossip / wireBytes
	out["replica.antientropy_bytes_per_round"] = delta("antientropy_bytes_total") / float64(totalOps)
	for p, name := range maintainParts {
		out[name+"_ms"] = float64(w.partNs[p]) / 1e6 / float64(tracedOps)
		out[name+"_rpcs"] = float64(w.partRPCs[p]) / float64(tracedOps)
	}
	d := w.cfg.microTime
	snap := w.nodes[0].Snapshot()
	out["replica.engine.range_digest_ns"] = engineRangeDigestNs(d, snap.Items)
	out["routes.apply_all_ns"], out["routes.diff_ns"] = routesGossipNs(d, snap.Routes)
}
