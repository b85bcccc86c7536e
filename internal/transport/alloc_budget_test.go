//go:build !race

package transport

import (
	"context"
	"fmt"
	"runtime"
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
	nodes := startTwoRing(t, sessionsNet(), n, func(cfg *Config) {
		cfg.RouteMode = RouteClassic
		cfg.WrapCaller = func(_ string, inner wire.Caller) wire.Caller {
			return wire.CallerFunc(func(ctx context.Context, addr string, req wire.Request) (wire.Response, error) {
				rpcs[req.Type].Add(1)
				return inner.Call(ctx, addr, req)
			})
		}
	})
	joinTwoRing(t, nodes)
	return withFingers(t, nodes)
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
