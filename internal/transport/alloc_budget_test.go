//go:build !race

package transport

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/replica"
	"repro/internal/wire"
)

// memCluster is twoRingCluster over MemNet sessions, in classic mode with
// fingers built: the byte path is what a lookup's budget covers. Every
// node's outgoing RPCs are counted by type in rpcs.
func memCluster(t *testing.T, n int, rpcs *[32]atomic.Uint64) []*Node {
	t.Helper()
	nodes := startTwoRing(t, sessionsNet(), n, countRPCs(rpcs), func(cfg *Config) { cfg.RouteMode = RouteClassic })
	joinTwoRing(t, nodes)
	return withFingers(t, nodes)
}

// countRPCs counts a node's outgoing RPCs by type in rpcs.
func countRPCs(rpcs *[32]atomic.Uint64) func(*Config) {
	return func(cfg *Config) {
		cfg.WrapCaller = func(_ string, inner wire.Caller) wire.Caller {
			return wire.CallerFunc(func(ctx context.Context, addr string, req wire.Request) (wire.Response, error) {
				rpcs[req.Type].Add(1)
				return inner.Call(ctx, addr, req)
			})
		}
	}
}

// TestAllocBudgetLookupWalk: a classic hierarchical lookup creates no
// heap object, counting everything every node does to answer — the whole
// path bench/perf's lookup-walk measures (retrier, instrumented pool,
// MemNet, server session, handler, decode). The budget is per lookup, so
// a change that cuts messages cannot trip it. The attempt's deadline
// context (now pooled), the two address strings of the decoded reply (now
// interned), the closure of a goroutine per served request (now answered
// by the session's reader) and the LayerHops slice (now an array) made it
// four, then one.
func TestAllocBudgetLookupWalk(t *testing.T) {
	if perLookup := lookupAllocs(t, nil); perLookup != 0 {
		t.Errorf("a lookup made %.2f heap objects, budget 0", perLookup)
	}
}

// TestAllocBudgetLookupTraced: tracing a lookup into a Trace sized ahead
// adds no heap object either: a record is a value appended in place.
func TestAllocBudgetLookupTraced(t *testing.T) {
	tr := &Trace{Calls: make([]TraceCall, 0, 64)}
	if perLookup := lookupAllocs(t, tr); perLookup != 0 {
		t.Errorf("a traced lookup made %.2f heap objects, budget 0", perLookup)
	}
}

// lookupAllocs runs lookups from every node of an 8-node memCluster in
// turn, once every connection they use is dialled, and returns the heap
// objects one makes. With tr set each runs traced into tr, emptied first,
// and the calls traced must be the find_closest the nodes sent.
func lookupAllocs(t *testing.T, tr *Trace) float64 {
	var rpcs [32]atomic.Uint64
	nodes := memCluster(t, 8, &rpcs)
	keys := make([]id.ID, 64)
	for i := range keys {
		keys[i] = LiveKeyID(fmt.Sprintf("budget-%d", i))
	}
	ctx := context.Background()
	if tr != nil {
		ctx = WithTrace(ctx, tr)
	}
	traced := 0
	lookup := func(i int) {
		key := keys[i%len(keys)]
		if tr != nil {
			tr.Calls = tr.Calls[:0]
		}
		res, err := nodes[i%len(nodes)].Lookup(ctx, key)
		if err != nil {
			t.Fatalf("lookup: %v", err)
		}
		if want := trueOwner(nodes, key); res.Owner.Addr != want.Addr() {
			t.Fatalf("lookup of %s found %s, want %s", key.Short(), res.Owner.Addr, want.Addr())
		}
		if tr != nil {
			traced += len(tr.Calls)
		}
	}
	for i := 0; i < 2*len(keys); i++ {
		lookup(i) // dial every connection the measured lookups will use
	}
	const runs = 512
	i := 0
	before := rpcs[wire.TFindClosest].Load()
	traced = 0
	perLookup := testing.AllocsPerRun(runs, func() {
		lookup(i)
		i++
	})
	// AllocsPerRun calls the function once more than runs, to warm up.
	sent := rpcs[wire.TFindClosest].Load() - before
	if sent < runs {
		t.Fatalf("%d find_closest in %d lookups: the walk is not being exercised", sent, runs+1)
	}
	if tr != nil && uint64(traced) != sent {
		t.Fatalf("%d calls traced, %d find_closest sent", traced, sent)
	}
	t.Logf("%.2f heap objects per lookup, %.2f find_closest per lookup", perLookup, float64(sent)/(runs+1))
	return perLookup
}

// maxRegistryBytes is what one node's metrics may hold — its registry,
// every family transport, wire, the retrier and replica register, and
// the structs holding their children — with under 20 % headroom over
// what TestAllocBudgetNodeRegistry measures (4.6 KB). With every family
// a map, every child a map entry with its own rendered label and a
// math/rand source in the retrier, it was 26.9 KB.
const maxRegistryBytes = 5500

// TestAllocBudgetNodeRegistry: the heap one node's metrics hold, the
// label strings every node shares aside.
func TestAllocBudgetNodeRegistry(t *testing.T) {
	const regs = 64
	instrument := func() *metrics.Registry {
		reg := metrics.NewRegistry()
		newNodeMetrics(reg, 2)
		wire.NewRetrier(nil, wire.RetryPolicy{}, wire.BreakerPolicy{}, wire.WallClock, reg)
		replica.NewMetrics(reg)
		return reg
	}
	instrument() // renders the process-wide label strings
	keep := make([]*metrics.Registry, regs)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for i := range keep {
		keep[i] = instrument()
	}
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	per := float64(int64(ms1.HeapAlloc)-int64(ms0.HeapAlloc)) / regs
	runtime.KeepAlive(keep)
	t.Logf("one node's metrics: %.0f B", per)
	if per > maxRegistryBytes {
		t.Errorf("one node's metrics hold %.0f B, budget %d", per, maxRegistryBytes)
	}
}

// TestAllocBudgetKeyIDs: identifiers are hashed from a stack buffer, so
// a key of up to 64 bytes costs no heap object, and they are the
// identifiers the concatenating expression produced, byte for byte.
func TestAllocBudgetKeyIDs(t *testing.T) {
	for _, key := range []string{"", "k", "127.0.0.1:24107", strings.Repeat("x", 64), strings.Repeat("long", 100)} {
		if got, want := LiveKeyID(key), id.HashString("key:"+key); got != want {
			t.Errorf("LiveKeyID(%q) = %s, want %s", key, got, want)
		}
		if got, want := NodeID(key), id.HashString("live:"+key); got != want {
			t.Errorf("NodeID(%q) = %s, want %s", key, got, want)
		}
		if len(key) > 64 {
			continue
		}
		var sink id.ID
		if avg := testing.AllocsPerRun(200, func() { sink = LiveKeyID(key) }); avg != 0 {
			t.Errorf("LiveKeyID of a %d-byte key made %.1f heap objects, budget 0", len(key), avg)
		}
		if avg := testing.AllocsPerRun(200, func() { sink = NodeID(key) }); avg != 0 {
			t.Errorf("NodeID of a %d-byte address made %.1f heap objects, budget 0", len(key), avg)
		}
		_ = sink
	}
}

// TestGossipProbeAllocBudget: a gossip round between converged tables of
// 32 events creates 1 heap object (3 before the attempt's deadline
// context was pooled, 2 before the probe was answered by the session's
// reader instead of a goroutine of its own) and nothing that grows with
// the table: no event slice is built, encoded or decoded on either side.
// Shipping the table made 49.
func TestGossipProbeAllocBudget(t *testing.T) {
	a, b := gossipPair(t, sessionsNet(), RouteOneHop) // the budget covers the byte path
	for i := 0; i < 30; i++ {
		ev := wire.RouteEvent{Layer: 1, Peer: peerFor(fmt.Sprintf("phantom-%d", i)), Kind: wire.RouteJoin, Stamp: 1}
		a.routes.Apply(ev)
		b.routes.Apply(ev)
	}
	before := counterValue(t, a, "route_gossip_bytes_total")
	avg := testing.AllocsPerRun(200, func() {
		if err := a.RouteGossipOnce(); err != nil {
			t.Fatal(err)
		}
	})
	if got := (counterValue(t, a, "route_gossip_bytes_total") - before) / 201; got != routeProbeBytes {
		t.Fatalf("%v gossip payload bytes per round, want one probe's %d: the tables are not converged", got, routeProbeBytes)
	}
	t.Logf("%.1f heap objects per converged gossip round", avg)
	if avg > 1 {
		t.Errorf("a converged gossip round made %.1f heap objects, budget 1", avg)
	}
}

// TestAllocBudgetQuorumRead: a quorum read (r = 3, R = 2) of a key the
// process has decoded recently makes 5 heap objects, counting everything
// every node does to answer it, over the byte path bench/perf's kv-get
// measures (one-hop routing, MemNet sessions). All five are the client's
// decode of the two answers, and each must own its memory, since the
// frame it came in is pooled: the owner's value (handed to the caller),
// the second member's value, both writer stamps and the owner's successor
// list (the set's other members). The members' key is the intern table's
// (wire's name). The reader is outside the key's replica set, so both
// answers cross the wire.
func TestAllocBudgetQuorumRead(t *testing.T) {
	if per := quorumAllocs(t, wire.TStoreGet, 2, 64); per != 5 {
		t.Errorf("a quorum read made %.2f heap objects, budget 5", per)
	}
}

// TestAllocBudgetQuorumReadManyKeys: reads cycling through 4 times as
// many keys as the intern table has slots, so that nearly every key has
// been evicted before it comes round again. A read makes 6.96 heap
// objects, which AllocsPerRun rounds down to 6: the 5 above and, for the
// 98 % of keys that share their slot, the key's intern miss, a string and
// the slot's pointer to it. The members share this process's table, so
// one read pays one miss; where each member is its own process, each pays
// its own, about 9 a read, where decoding the key with str would make 7.
func TestAllocBudgetQuorumReadManyKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("stores 16,384 keys")
	}
	if per := quorumAllocs(t, wire.TStoreGet, 2, 16384); per != 6 {
		t.Errorf("a quorum read of a key not in the intern table made %.2f heap objects, budget 6", per)
	}
}

// TestAllocBudgetQuorumWrite: a quorum write (r = 3, W = 2) makes 16 heap
// objects on the same path: the coordinator's two requests' item slices,
// its writer stamp and its decode of the owner's successor list, and each
// of the three members' decode of the item (slice, key, value, stamp).
func TestAllocBudgetQuorumWrite(t *testing.T) {
	if per := quorumAllocs(t, wire.TStorePut, 3, 64); per != 16 {
		t.Errorf("a quorum write made %.2f heap objects, budget 16", per)
	}
}

// quorumAllocs runs quorum operations of type op (TStoreGet: Get, else
// Put) over nkeys keys in turn on an installed 8-node one-hop
// memCluster-like cluster, each from a node outside the key's replica
// set, once every connection they use is dialled, and returns the heap
// objects one makes. Each must send at least sent requests of type op.
func quorumAllocs(t *testing.T, op wire.MsgType, sent uint64, nkeys int) float64 {
	var rpcs [32]atomic.Uint64
	nodes := install(t, startTwoRing(t, sessionsNet(), 8, countRPCs(&rpcs), replicaTweak(3, RouteOneHop)))
	ctx := context.Background()
	value := []byte(strings.Repeat("v", 64))
	keys := make([]string, nkeys)
	readers := make([]*Node, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("budget-%d", i)
		set := replicaSetOf(nodes, keys[i], 3)
		for _, nd := range byIDOrder(nodes) {
			if !slices.Contains(set, nd) {
				readers[i] = nd
				break
			}
		}
		if err := nodes[0].Put(ctx, keys[i], value); err != nil {
			t.Fatal(err)
		}
	}
	do := func(i int) {
		i %= len(keys)
		if op != wire.TStoreGet {
			if err := readers[i].Put(ctx, keys[i], value); err != nil {
				t.Fatalf("put %s: %v", keys[i], err)
			}
			return
		}
		if v, err := readers[i].Get(ctx, keys[i]); err != nil || !bytes.Equal(v, value) {
			t.Fatalf("get %s = %q, %v", keys[i], v, err)
		}
	}
	for i := 0; i < 2*len(keys); i++ {
		do(i) // dial every connection the measured operations will use
	}
	runs := max(512, len(keys))
	i := 0
	before := rpcs[op].Load()
	per := testing.AllocsPerRun(runs, func() {
		do(i)
		i++
	})
	// AllocsPerRun calls the function once more than runs, to warm up.
	if got := rpcs[op].Load() - before; got < sent*uint64(runs+1) {
		t.Fatalf("%d %v in %d operations, want %d each: the quorum path is not being exercised", got, op, runs+1, sent)
	}
	t.Logf("%.2f heap objects per operation", per)
	return per
}
