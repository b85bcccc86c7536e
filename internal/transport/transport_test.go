package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"repro/internal/binning"
	"repro/internal/lint/leakcheck"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/replica"
	"repro/internal/wire"
)

// wireCall performs one exchange over TCP on a fresh pool, bounded by
// timeout.
func wireCall(addr string, req wire.Request, timeout time.Duration) (wire.Response, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	p := wire.NewPool(wire.PoolOptions{})
	defer p.Close()
	return p.Call(ctx, addr, req)
}

// cluster starts n live nodes on loopback TCP, placed in two
// virtual-coordinate clusters ("west" around (0,0) and "east" around
// (500,500)), the first two the landmarks, and joins them into a depth-2
// overlay with fingers built. Only TestMetricsExposition runs on it: a
// node's client-side series meter its connection pool, which the direct
// net does not use (builtCluster is the direct-net cluster).
func cluster(t *testing.T, n int) []*Node {
	t.Helper()
	nodes := make([]*Node, 0, n)
	coord := func(i int) [2]float64 {
		if i%2 == 0 {
			return [2]float64{float64(i), float64(i % 7)}
		}
		return [2]float64{500 + float64(i), 500 + float64(i%7)}
	}
	// The first two nodes double as landmarks; start them before computing
	// anyone's landmark list.
	for i := 0; i < 2; i++ {
		nd, err := Start("127.0.0.1:0", Config{Depth: 2, Coord: coord(i), CallTimeout: 5 * time.Second})
		if err != nil {
			t.Fatalf("Start landmark %d: %v", i, err)
		}
		nodes = append(nodes, nd)
	}
	landmarks := []string{nodes[0].Addr(), nodes[1].Addr()}
	full := make([]*Node, 0, n)
	for i := 0; i < n; i++ {
		var nd *Node
		var err error
		if i < 2 {
			nd = nodes[i]
			nd.SetLandmarks(landmarks)
		} else {
			nd, err = Start("127.0.0.1:0", Config{
				Depth: 2, Coord: coord(i), Landmarks: landmarks,
				CallTimeout: 5 * time.Second,
			})
			if err != nil {
				t.Fatalf("Start node %d: %v", i, err)
			}
		}
		full = append(full, nd)
	}
	t.Cleanup(func() {
		for _, nd := range full {
			_ = nd.Close()
		}
	})
	if err := full[0].CreateNetwork(); err != nil {
		t.Fatalf("CreateNetwork: %v", err)
	}
	for i := 1; i < n; i++ {
		if err := full[i].Join(full[0].Addr()); err != nil {
			t.Fatalf("Join node %d: %v", i, err)
		}
		stabilizeAll(t, full[:i+1], 3)
	}
	stabilizeAll(t, full, 3)
	return withFingers(t, full)
}

// builtCluster is twoRingCluster with the settings cluster's nodes run
// with — the default retry policy and breaker, a 5 s call timeout — and
// every finger built.
func builtCluster(t *testing.T, n int) []*Node {
	t.Helper()
	return withFingers(t, twoRingCluster(t, n, func(cfg *Config) {
		cfg.Retry, cfg.Breaker, cfg.CallTimeout = wire.RetryPolicy{}, wire.BreakerPolicy{}, 5*time.Second
	}))
}

// withFingers builds every node's fingers and returns the nodes.
func withFingers(t *testing.T, nodes []*Node) []*Node {
	t.Helper()
	for _, nd := range nodes {
		if err := nd.BuildAllFingers(); err != nil {
			t.Fatalf("BuildAllFingers: %v", err)
		}
	}
	return nodes
}

func stabilizeAll(t *testing.T, nodes []*Node, rounds int) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		for _, nd := range nodes {
			if err := nd.StabilizeOnce(); err != nil {
				t.Fatalf("StabilizeOnce: %v", err)
			}
		}
	}
}

// trueOwner computes the expected owner among the given nodes.
func trueOwner(nodes []*Node, key id.ID) *Node {
	best := nodes[0]
	bestDist := id.Dist(key, best.ID())
	for _, nd := range nodes[1:] {
		if d := id.Dist(key, nd.ID()); d.Less(bestDist) {
			best, bestDist = nd, d
		}
	}
	return best
}

func TestSingleNodeNetwork(t *testing.T) {
	nd, err := Start("127.0.0.1:0", Config{Depth: 1, CallTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if createErr := nd.CreateNetwork(); createErr != nil {
		t.Fatal(createErr)
	}
	res, err := nd.Lookup(context.Background(), id.HashString("anything"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Owner.Addr != nd.Addr() || res.Hops != 0 {
		t.Errorf("owner %s hops %d", res.Owner.Addr, res.Hops)
	}
	if putErr := nd.Put(context.Background(), "greeting", []byte("hello")); putErr != nil {
		t.Fatal(putErr)
	}
	v, err := nd.Get(context.Background(), "greeting")
	if err != nil || string(v) != "hello" {
		t.Errorf("get: %q %v", v, err)
	}
}

func TestClusterLookupCorrectness(t *testing.T) {
	leakcheck.Watchdog(t, time.Minute)
	nodes := builtCluster(t, 8)
	for trial := 0; trial < 40; trial++ {
		key := id.HashString(fmt.Sprintf("key-%d", trial))
		want := trueOwner(nodes, key)
		for _, from := range []*Node{nodes[0], nodes[3], nodes[7]} {
			res, err := from.Lookup(context.Background(), key)
			if err != nil {
				t.Fatalf("lookup from %s: %v", from.Addr(), err)
			}
			if res.Owner.Addr != want.Addr() {
				t.Fatalf("trial %d from %s: owner %s, want %s",
					trial, from.Addr(), res.Owner.Addr, want.Addr())
			}
		}
	}
}

func TestClusterBinning(t *testing.T) {
	nodes := builtCluster(t, 8)
	// Even indexes (west cluster) share a ring name; odd indexes (east)
	// share a different one.
	west := nodes[0].RingNames()[0]
	east := nodes[1].RingNames()[0]
	if west == east {
		t.Fatalf("clusters binned together: %q", west)
	}
	for i, nd := range nodes {
		got := nd.RingNames()[0]
		want := west
		if i%2 == 1 {
			want = east
		}
		if got != want {
			t.Errorf("node %d ring %q, want %q", i, got, want)
		}
	}
}

func TestGlobalRingComplete(t *testing.T) {
	nodes := builtCluster(t, 6)
	// Walking successors from any node must visit all nodes exactly once.
	byAddr := map[string]*Node{}
	for _, nd := range nodes {
		byAddr[nd.Addr()] = nd
	}
	cur := nodes[0]
	seen := map[string]bool{}
	for i := 0; i < len(nodes); i++ {
		if seen[cur.Addr()] {
			t.Fatalf("ring loop revisited %s after %d steps", cur.Addr(), i)
		}
		seen[cur.Addr()] = true
		succ, _, err := cur.Neighbors(1)
		if err != nil || len(succ) == 0 {
			t.Fatalf("no successors at %s: %v", cur.Addr(), err)
		}
		next, ok := byAddr[succ[0].Addr]
		if !ok {
			t.Fatalf("successor %s is not a known node", succ[0].Addr)
		}
		cur = next
	}
	if cur != nodes[0] {
		t.Error("successor walk did not close the ring")
	}
	// And successor order must match sorted IDs.
	ids := make([]string, len(nodes))
	for i, nd := range nodes {
		ids[i] = nd.ID().String()
	}
	sort.Strings(ids)
	_ = ids
}

func TestPutGetAcrossNodes(t *testing.T) {
	nodes := builtCluster(t, 6)
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("file-%d", i)
		val := []byte(fmt.Sprintf("location-%d", i))
		if err := nodes[i%len(nodes)].Put(context.Background(), key, val); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
	}
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("file-%d", i)
		v, err := nodes[(i+3)%len(nodes)].Get(context.Background(), key)
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		if string(v) != fmt.Sprintf("location-%d", i) {
			t.Errorf("get %s = %q", key, v)
		}
	}
}

func TestLowerLayerHopsHappen(t *testing.T) {
	nodes := builtCluster(t, 10)
	lower, total := 0, 0
	for trial := 0; trial < 60; trial++ {
		key := id.HashString(fmt.Sprintf("probe-%d", trial))
		res, err := nodes[trial%len(nodes)].Lookup(context.Background(), key)
		if err != nil {
			t.Fatal(err)
		}
		total += res.Hops
		for l := 1; l < len(res.LayerHops); l++ {
			lower += res.LayerHops[l]
		}
		want := trueOwner(nodes, key)
		if res.Owner.Addr != want.Addr() {
			t.Fatalf("wrong owner on trial %d", trial)
		}
	}
	if total == 0 {
		t.Fatal("no hops at all")
	}
	if lower == 0 {
		t.Error("hierarchical routing never used a lower ring")
	}
}

func TestRingTablesDiscoverable(t *testing.T) {
	nodes := builtCluster(t, 8)
	// Every ring's table must be retrievable from its current storing
	// node (found by flat routing), and must name live members.
	seen := map[string]bool{}
	for _, nd := range nodes {
		name := nd.RingNames()[0]
		if seen[name] {
			continue
		}
		seen[name] = true
		rid := binning.RingID(2, name)
		owner, _, err := nodes[0].walkOwner(context.Background(), nodes[0].Addr(), 1, rid)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := nodes[0].call(context.Background(), owner.Addr, wire.Request{
			Type:  wire.TGetRingTable,
			Table: wire.RingTable{Layer: 2, Name: name},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Found {
			t.Fatalf("ring table %q not at its storing node %s", name, owner.Addr)
		}
		if _, err := nodes[0].call(context.Background(), resp.Table.Smallest.Addr, wire.Request{Type: wire.TPing}); err != nil {
			t.Errorf("ring table %q names unreachable member", name)
		}
	}
	if len(seen) < 2 {
		t.Fatalf("expected at least 2 rings, saw %d", len(seen))
	}
}

func TestNodeFailureHealing(t *testing.T) {
	leakcheck.Watchdog(t, time.Minute)
	nodes := builtCluster(t, 8)
	victim := nodes[4]
	_ = victim.Close()
	alive := append(append([]*Node{}, nodes[:4]...), nodes[5:]...)
	stabilizeAll(t, alive, 5)
	for _, nd := range alive {
		if err := nd.BuildAllFingers(); err != nil {
			t.Fatalf("rebuild fingers: %v", err)
		}
	}
	for trial := 0; trial < 20; trial++ {
		key := id.HashString(fmt.Sprintf("after-fail-%d", trial))
		want := trueOwner(alive, key)
		res, err := alive[trial%len(alive)].Lookup(context.Background(), key)
		if err != nil {
			t.Fatalf("lookup after failure: %v", err)
		}
		if res.Owner.Addr != want.Addr() {
			t.Fatalf("owner %s, want %s", res.Owner.Addr, want.Addr())
		}
	}
}

func TestJoinErrors(t *testing.T) {
	nd, err := Start("127.0.0.1:0", Config{Depth: 2, CallTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if err := nd.Join("127.0.0.1:1"); err == nil {
		t.Error("join via unreachable bootstrap accepted")
	}
	if err := nd.CreateNetwork(); err == nil {
		t.Error("depth-2 CreateNetwork without landmarks accepted")
	}
}

func TestRTTProber(t *testing.T) {
	nd, err := Start("127.0.0.1:0", Config{Depth: 1, CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	pool := wire.NewPool(wire.PoolOptions{})
	defer pool.Close()
	p := &RTTProber{Samples: 2, Timeout: time.Second}
	lat, err := p.Latency(context.Background(), pool, nd.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if lat < 0 || lat > 1000 {
		t.Errorf("implausible loopback latency %v ms", lat)
	}
	if _, err := p.Latency(context.Background(), pool, "127.0.0.1:1"); err == nil {
		t.Error("probing a dead address should fail")
	}
}

// seams holds every node startNode started, mapped to its count seam: its
// outgoing RPC attempts by type, counted beneath its Config.WrapCaller,
// where its pool sits. rpc_requests_total meters the pool, which a node on
// the direct net does not use (DESIGN §11).
var seams sync.Map // *Node -> *[256]atomic.Uint64

// sessionsNet returns a net whose nodes talk over MemNet sessions: for
// tests of the byte path, the pool and the landmark dials.
func sessionsNet() *DirectNet {
	dn := NewDirectNet()
	dn.Sessions = true
	return dn
}

// startNode starts a node listening as addr on dn, with a count seam,
// closed when the test ends.
func startNode(t *testing.T, dn *DirectNet, addr string, cfg Config) *Node {
	t.Helper()
	sent := new([256]atomic.Uint64)
	wrap := cfg.WrapCaller
	cfg.WrapCaller = func(self string, inner wire.Caller) wire.Caller {
		counted := wire.CallerFunc(func(ctx context.Context, to string, req wire.Request) (wire.Response, error) {
			sent[req.Type].Add(1)
			return inner.Call(ctx, to, req)
		})
		if wrap == nil {
			return counted
		}
		return wrap(self, counted)
	}
	n, err := dn.Start(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seams.Store(n, sent)
	t.Cleanup(func() {
		n.Close()
		seams.Delete(n)
	})
	return n
}

// rpcsByType sums the nodes' outgoing RPC attempts by message type, as
// their count seams saw them.
func rpcsByType(t *testing.T, nodes ...*Node) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, nd := range nodes {
		seam, ok := seams.Load(nd)
		if !ok {
			t.Fatalf("%s was not started with a count seam", nd.Addr())
		}
		sent := seam.(*[256]atomic.Uint64)
		for typ := range sent {
			if v := sent[typ].Load(); v != 0 {
				out[wire.MsgType(typ).String()] += float64(v)
			}
		}
	}
	return out
}

// TestCountSeamMatchesServed: in a settled round, what the count seams
// saw the nodes send is what the nodes served, type by type.
func TestCountSeamMatchesServed(t *testing.T) {
	nodes := twoRingCluster(t, 8, replicaTweak(3, RouteOneHop))
	for i := 0; i < 16; i++ {
		if err := nodes[i%len(nodes)].Put(context.Background(), fmt.Sprintf("seam-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	stabilizeAll(t, nodes, 2)
	served := func() map[string]float64 {
		out := map[string]float64{}
		for _, typ := range wire.AllMsgTypes {
			out[typ.String()] = clusterCounter(t, nodes, `rpc_server_requests_total{type="`+typ.String()+`"}`)
		}
		return out
	}
	sentBefore, servedBefore := rpcsByType(t, nodes...), served()
	stabilizeAll(t, nodes, 1)
	sent, got := rpcsSince(t, sentBefore, nodes...), map[string]float64{}
	for typ, v := range served() {
		if d := v - servedBefore[typ]; d != 0 {
			got[typ] = d
		}
	}
	if len(sent) == 0 || !reflect.DeepEqual(sent, got) {
		t.Errorf("one settled round: the seams saw %v sent, the nodes served %v", sent, got)
	}
	t.Logf("one settled round: %v", sent)
}

// TestRTTProberExcludesDial pins what a probe times: an exchange on an
// open connection, not a connection set-up plus an exchange. The first
// sample pays the pool's dial, the minimum does not. (Through its own
// one-shot dial per sample, the prober reported half of handshake plus
// exchange — here at least 15 ms — as the one-way delay.)
func TestRTTProberExcludesDial(t *testing.T) {
	dn := sessionsNet() // a probe is a pool exchange
	startNode(t, dn, "n", Config{Depth: 1})
	pool := wire.NewPool(wire.PoolOptions{Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
		time.Sleep(30 * time.Millisecond)
		return dn.Dial(addr, timeout)
	}})
	defer pool.Close()
	lat, err := (&RTTProber{Samples: 3}).Latency(context.Background(), pool, "n")
	if err != nil {
		t.Fatal(err)
	}
	if lat >= 15 {
		t.Errorf("latency = %.1f ms over an in-process pipe: the 30 ms dial was counted", lat)
	}
}

// TestJoinOpensOneConnectionPerLandmark pins that landmark probes ride
// the node's pool: the connection a probe opens is the one the join and
// the maintenance rounds after it keep using, so a landmark is dialled
// once, not once to probe and once more to talk.
func TestJoinOpensOneConnectionPerLandmark(t *testing.T) {
	leakcheck.Watchdog(t, 30*time.Second)
	dn := sessionsNet() // what is counted is connections
	landmarks := []string{"lm0", "lm1"}
	lm0 := startNode(t, dn, "lm0", Config{Depth: 2, Landmarks: landmarks})
	lm1 := startNode(t, dn, "lm1", Config{Depth: 2, Coord: [2]float64{500, 500}})
	if err := lm0.CreateNetwork(); err != nil {
		t.Fatal(err)
	}
	if err := lm1.Join("lm0"); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	dials := make(map[string]int)
	joiner := startNode(t, dn, "j", Config{Depth: 2, Coord: [2]float64{3, 4},
		Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			mu.Lock()
			dials[addr]++
			mu.Unlock()
			return dn.Dial(addr, timeout)
		}})
	if err := joiner.Join("lm0"); err != nil {
		t.Fatal(err)
	}
	joiner.StabilizeOnce()
	mu.Lock()
	defer mu.Unlock()
	for _, lm := range landmarks {
		if dials[lm] != 1 {
			t.Errorf("joiner dialled landmark %s %d times, want 1", lm, dials[lm])
		}
	}
}

func TestHandledCounter(t *testing.T) {
	nd, err := Start("127.0.0.1:0", Config{Depth: 1, CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if _, err := wireCall(nd.Addr(), wire.Request{Type: wire.TPing}, time.Second); err != nil {
		t.Fatal(err)
	}
	if nd.Handled() != 1 {
		t.Errorf("Handled = %d", nd.Handled())
	}
}

// TestUnknownMessageRejected: a type no handler case answers, the
// retired unversioned put and get (numbers 8 and 9) included, draws
// "unknown message type", and all such types are counted under one
// type="unknown" series: the requests add no line to the exposition.
func TestUnknownMessageRejected(t *testing.T) {
	nd, err := Start("127.0.0.1:0", Config{Depth: 1, CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	exposition := func() string {
		var b strings.Builder
		if _, err := nd.Metrics().WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	before := strings.Count(exposition(), "\n")
	for _, typ := range []wire.MsgType{99, 8, 9} {
		_, err := wireCall(nd.Addr(), wire.Request{Type: typ, Name: "k"}, time.Second)
		var re *wire.RemoteError
		if !errors.As(err, &re) || !strings.Contains(re.Msg, "unknown message type") {
			t.Errorf("%v: %v, want an unknown-message-type refusal", typ, err)
		}
	}
	for _, name := range []string{`rpc_server_requests_total{type="unknown"}`, `rpc_server_errors_total{type="unknown"}`} {
		if got := counterValue(t, nd, name); got != 3 {
			t.Errorf("%s = %v, want 3", name, got)
		}
	}
	if after := strings.Count(exposition(), "\n"); after != before {
		t.Errorf("the exposition grew from %d to %d lines", before, after)
	}
}

// TestServeHeadOfLineMeasured: a session answers its requests one at a
// time, in arrival order, so a ping that arrives while a ~1 MiB sync_pull
// reply is being written waits for that write. The test pins the order —
// the whole pull reply reaches the client before the ping's — and both
// answers; the ping's wait is logged against an idle session's ping, never
// gated (DESIGN §14 records it).
func TestServeHeadOfLineMeasured(t *testing.T) {
	leakcheck.Watchdog(t, 60*time.Second)
	const items, valueBytes = 256, 4 << 10
	batch := make([]wire.StoreItem, items)
	for i := range batch {
		batch[i] = wire.StoreItem{Key: fmt.Sprintf("hol-%d", i), Value: make([]byte, valueBytes), Version: 1, Writer: "w#1"}
	}
	buckets := make([]uint32, replica.DigestBuckets)
	for i := range buckets {
		buckets[i] = uint32(i)
	}
	pull := wire.Request{Type: wire.TSyncPull, Buckets: buckets} // Key == KeyHi: the whole ring

	dn := sessionsNet() // what is measured is a session's order of answers
	for _, tr := range []struct {
		name  string
		start func(t *testing.T, name string) *Node
	}{
		{"mem", func(t *testing.T, name string) *Node { return startNode(t, dn, name, Config{Depth: 1}) }},
		{"tcp", func(t *testing.T, _ string) *Node {
			n, err := Start("127.0.0.1:0", Config{Depth: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { n.Close() })
			return n
		}},
	} {
		t.Run(tr.name, func(t *testing.T) {
			// a sends and b answers, so a's bytes in are b's replies.
			a, b := tr.start(t, "a"), tr.start(t, "b")
			read := func() float64 { return counterValue(t, a, "rpc_bytes_in_total") }
			b.store.ApplyBatch(batch)
			ctx := context.Background()

			var idle time.Duration
			for i := 0; i < 2; i++ { // the first ping opens the connection
				start := time.Now()
				if _, err := a.call(ctx, b.Addr(), wire.Request{Type: wire.TPing}); err != nil {
					t.Fatal(err)
				}
				idle = time.Since(start)
			}

			type result struct {
				resp wire.Response
				err  error
			}
			pulled := make(chan result, 1)
			handled, before := b.Handled(), read()
			go func() {
				resp, err := a.call(ctx, b.Addr(), pull)
				pulled <- result{resp, err}
			}()
			// Once b has answered the pull, its reply is being written.
			for b.Handled() == handled {
				runtime.Gosched()
			}
			start := time.Now()
			resp, err := a.call(ctx, b.Addr(), wire.Request{Type: wire.TPing})
			behind := time.Since(start)
			if err != nil || resp.Self.Addr != b.Addr() {
				t.Fatalf("ping behind the pull: %+v, %v", resp.Self, err)
			}
			if got := read() - before; got < items*valueBytes {
				t.Errorf("the ping's answer came back after %.0f B, before the %d B pull reply: answers left out of order", got, items*valueBytes)
			}
			r := <-pulled
			if r.err != nil || len(r.resp.Items) != items {
				t.Fatalf("sync_pull: %d items, %v; want %d", len(r.resp.Items), r.err, items)
			}
			t.Logf("%s: a ping behind a %d KiB sync_pull reply waited %v (a ping on an idle session: %v; a tenth of CallTimeout: %v)",
				tr.name, items*valueBytes>>10, behind, idle, a.cfg.CallTimeout/10)
		})
	}
}

func TestCloseIdempotent(t *testing.T) {
	nd, err := Start("127.0.0.1:0", Config{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}
	if err := nd.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}
