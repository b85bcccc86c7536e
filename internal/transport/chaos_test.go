package transport

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// chaosSeed fixes the injected-fault sequence; the harness asserts that
// replaying the recorded call log against the same seed reproduces it
// exactly.
const chaosSeed = 1012

// chaosRules is the steady-state chaos: every RPC 12% flaky, every link
// slightly slow, and replies from n5 occasionally lost after the peer
// applied the request (exercising the idempotency-aware retry path).
// ErrReply is deliberately absent: injected remote errors are
// application-level answers from a live peer, which walks treat as fatal
// by design.
func chaosRules() []faultnet.Rule {
	return []faultnet.Rule{
		{Drop: 0.12},
		{Delay: time.Millisecond, DelayJitter: time.Millisecond},
		{Dst: "n5", DropReply: 0.08},
	}
}

// chaosCluster builds an n-node depth-2 overlay (same two-coordinate-
// cluster layout as cluster) whose outgoing calls all pass through wrap,
// with a fast retry policy and the given breaker. Nodes get the logical
// names n0..n{n-1}. Optional tweak funcs adjust each node's Config
// before start (e.g. explicit replication quorums).
func chaosCluster(t *testing.T, n int, wrap func(string, wire.Caller) wire.Caller, breaker wire.BreakerPolicy, tweaks ...func(*Config)) []*Node {
	t.Helper()
	coord := func(i int) [2]float64 {
		if i%2 == 0 {
			return [2]float64{float64(i), float64(i % 7)}
		}
		return [2]float64{500 + float64(i), 500 + float64(i%7)}
	}
	nodes := make([]*Node, 0, n)
	for i := 0; i < n; i++ {
		cfg := Config{
			Depth:       2,
			Coord:       coord(i),
			CallTimeout: 5 * time.Second,
			Retry: wire.RetryPolicy{
				MaxAttempts: 4,
				BaseBackoff: 2 * time.Millisecond,
				MaxBackoff:  20 * time.Millisecond,
			},
			Breaker:    breaker,
			WrapCaller: wrap,
		}
		for _, tw := range tweaks {
			tw(&cfg)
		}
		nd, err := Start("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatalf("Start node %d: %v", i, err)
		}
		nodes = append(nodes, nd)
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	})
	landmarks := []string{nodes[0].Addr(), nodes[1].Addr()}
	for _, nd := range nodes {
		nd.SetLandmarks(landmarks)
	}
	if err := nodes[0].CreateNetwork(); err != nil {
		t.Fatalf("CreateNetwork: %v", err)
	}
	for i := 1; i < n; i++ {
		if err := nodes[i].Join(nodes[0].Addr()); err != nil {
			t.Fatalf("Join node %d: %v", i, err)
		}
		stabilizeAll(t, nodes[:i+1], 3)
	}
	stabilizeAll(t, nodes, 3)
	for _, nd := range nodes {
		if err := nd.BuildAllFingers(); err != nil {
			t.Fatalf("BuildAllFingers: %v", err)
		}
	}
	return nodes
}

// bindAll gives the nodes their logical names on the fault network.
func bindAll(nw *faultnet.Network, nodes []*Node) {
	for i, nd := range nodes {
		nw.Bind(nd.Addr(), fmt.Sprintf("n%d", i))
	}
}

// TestChaosLookupsConvergeUnderFaults is the chaos harness: an 8-node
// in-process cluster stores 20 keys, then serves lookups and reads under
// seeded drops, slow links and lost replies; a minority partition is cut
// off and healed. Every stored key must stay reachable throughout, and
// the injected-fault sequence must replay bit-identically from the seed.
func TestChaosLookupsConvergeUnderFaults(t *testing.T) {
	nw := faultnet.New(chaosSeed)
	freg := metrics.NewRegistry()
	nw.Instrument(freg)
	nodes := chaosCluster(t, 8, nw.Caller,
		wire.BreakerPolicy{Threshold: 8, Cooldown: 100 * time.Millisecond})
	bindAll(nw, nodes)

	keys := make([]string, 20)
	for i := range keys {
		keys[i] = fmt.Sprintf("chaos-key-%d", i)
		if err := nodes[i%len(nodes)].Put(context.Background(), keys[i], []byte("v-"+keys[i])); err != nil {
			t.Fatalf("put %s: %v", keys[i], err)
		}
	}

	// Phase 1: steady-state chaos. Lookups must still converge to the
	// true owner and every key must read back, because the retry layer
	// absorbs the injected faults.
	nw.SetRules(chaosRules()...)
	for i, key := range keys {
		kid := LiveKeyID(key)
		want := trueOwner(nodes, kid)
		for _, from := range []*Node{nodes[0], nodes[3], nodes[6]} {
			res, err := from.Lookup(context.Background(), kid)
			if err != nil {
				t.Fatalf("lookup %s from %s under chaos: %v", key, from.Addr(), err)
			}
			if res.Owner.Addr != want.Addr() {
				t.Fatalf("key %d: owner %s, want %s", i, res.Owner.Addr, want.Addr())
			}
		}
		v, err := nodes[(i+5)%len(nodes)].Get(context.Background(), key)
		if err != nil {
			t.Fatalf("get %s under chaos: %v", key, err)
		}
		if string(v) != "v-"+key {
			t.Fatalf("get %s = %q", key, v)
		}
	}

	// Phase 2: cut off n7 from the rest. The majority evicts it (via
	// suspicion-confirmed TEvict), heals its rings, and every key stays
	// readable — n7's keys come from the replicas Put installed.
	nw.SetRules() // partition only; keep the noise out of the repair
	names := make([]string, 0, 7)
	for i := 0; i < 7; i++ {
		names = append(names, fmt.Sprintf("n%d", i))
	}
	nw.Partition(names, []string{"n7"})
	majority := nodes[:7]
	stabilizeAll(t, majority, 6)
	for _, nd := range majority {
		if err := nd.BuildAllFingers(); err != nil {
			t.Fatalf("rebuild fingers under partition: %v", err)
		}
	}
	for _, key := range keys {
		if _, err := nodes[2].Get(context.Background(), key); err != nil {
			t.Fatalf("get %s during partition: %v", key, err)
		}
	}

	// Phase 3: heal. After the breaker cooldown and a few stabilization
	// rounds the full ring reassembles and every node serves every key.
	nw.Heal()
	time.Sleep(150 * time.Millisecond) // let open breakers reach half-open
	stabilizeAll(t, nodes, 6)
	for _, nd := range nodes {
		if err := nd.BuildAllFingers(); err != nil {
			t.Fatalf("rebuild fingers after heal: %v", err)
		}
	}
	for i, key := range keys {
		v, err := nodes[(i+1)%len(nodes)].Get(context.Background(), key)
		if err != nil {
			t.Fatalf("get %s after heal: %v", key, err)
		}
		if string(v) != "v-"+key {
			t.Fatalf("get %s after heal = %q", key, v)
		}
	}

	// Determinism: the recorded logical call log replayed against the
	// same seed must reproduce the exact injected-fault sequence.
	events := nw.Events()
	if len(events) == 0 {
		t.Fatal("chaos run injected no faults")
	}
	replayed := faultnet.Replay(chaosSeed, nw.Log())
	if len(replayed) != len(events) {
		t.Fatalf("replay produced %d events, live run %d", len(replayed), len(events))
	}
	for i := range events {
		if events[i].String() != replayed[i].String() {
			t.Fatalf("fault %d diverged: live %q, replay %q", i, events[i], replayed[i])
		}
	}
	counts := nw.Counts()
	if counts[faultnet.KindDrop] == 0 || counts[faultnet.KindDelay] == 0 || counts[faultnet.KindPartition] == 0 {
		t.Errorf("expected drops, delays and partition blocks, got %v", counts)
	}

	// Resilience must be visible in the metrics expositions: retries and
	// breaker state on the nodes, injections on the fault network.
	totalRetries := uint64(0)
	for _, nd := range nodes {
		var b strings.Builder
		if _, err := nd.Metrics().WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		s := b.String()
		for _, name := range []string{
			"wire_retries_total",
			"wire_breaker_opens_total",
			"wire_breaker_closes_total",
			"wire_breaker_open",
		} {
			if !strings.Contains(s, name) {
				t.Errorf("node exposition missing %s", name)
			}
		}
		totalRetries += nd.retrier.Retries()
	}
	if totalRetries == 0 {
		t.Error("no node recorded a retry despite injected faults")
	}
	var fb strings.Builder
	if _, err := freg.WriteTo(&fb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fb.String(), `faultnet_injected_total{kind="drop"}`) {
		t.Errorf("faultnet exposition missing injection counters:\n%s", fb.String())
	}
}

// onehopMembers extracts the global-ring Join-latest member addresses
// from a one-hop snapshot, sorted.
func onehopMembers(routes []wire.RouteEvent) []string {
	var out []string
	for _, ev := range routes {
		if ev.Layer == 1 && ev.Kind == wire.RouteJoin {
			out = append(out, ev.Peer.Addr)
		}
	}
	sort.Strings(out)
	return out
}

// waitRoutesConverged stabilizes the given nodes until every one-hop
// table is byte-identical across them and its global-ring Join members
// are exactly the live addresses — the gossip fixpoint — failing the
// test if a bounded number of rounds does not get there.
func waitRoutesConverged(t *testing.T, nodes []*Node, phase string) {
	t.Helper()
	want := make([]string, 0, len(nodes))
	for _, nd := range nodes {
		want = append(want, nd.Addr())
	}
	sort.Strings(want)
	for round := 0; round < 30; round++ {
		stabilizeAll(t, nodes, 1)
		ref := nodes[0].Snapshot().Routes
		if !reflect.DeepEqual(onehopMembers(ref), want) {
			continue
		}
		agree := true
		for _, nd := range nodes[1:] {
			if !reflect.DeepEqual(nd.Snapshot().Routes, ref) {
				agree = false
				break
			}
		}
		if agree {
			return
		}
	}
	t.Fatalf("%s: one-hop tables did not converge to %v within 30 rounds", phase, want)
}

// TestChaosOneHopConvergence drives the single-hop route tier through
// the chaos harness: an 8-node onehop cluster must answer stable-state
// lookups from its gossip-maintained tables in one verified hop, keep
// resolving true owners under injected drops and across a partition
// (verify-or-fallback: staleness costs a probe, never a wrong owner),
// reconverge to byte-identical full tables after the heal, and pay a
// bounded, metered gossip cost per maintenance round.
func TestChaosOneHopConvergence(t *testing.T) {
	nw := faultnet.New(chaosSeed)
	nodes := chaosCluster(t, 8, nw.Caller,
		wire.BreakerPolicy{Threshold: 8, Cooldown: 100 * time.Millisecond},
		func(c *Config) { c.RouteMode = RouteOneHop })
	bindAll(nw, nodes)

	// Phase 0: a fault-free cluster's tables reach the gossip fixpoint.
	waitRoutesConverged(t, nodes, "bootstrap")

	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("onehop-key-%d", i)
	}

	// Phase 1: on the converged cluster, lookups answer from the table —
	// one verified hop to the true owner, visible in onehop_hits_total.
	hitsBefore, lookups := uint64(0), 0
	for _, nd := range nodes {
		hitsBefore += nd.nm.onehopHits.Value()
	}
	for _, key := range keys {
		kid := LiveKeyID(key)
		want := trueOwner(nodes, kid)
		for _, from := range []*Node{nodes[0], nodes[3], nodes[6]} {
			res, err := from.Lookup(context.Background(), kid)
			if err != nil {
				t.Fatalf("lookup %s on converged cluster: %v", key, err)
			}
			if res.Owner.Addr != want.Addr() {
				t.Fatalf("lookup %s: owner %s, want %s", key, res.Owner.Addr, want.Addr())
			}
			lookups++
		}
	}
	hits := uint64(0)
	for _, nd := range nodes {
		hits += nd.nm.onehopHits.Value()
	}
	if got := hits - hitsBefore; got < uint64(lookups)*9/10 {
		t.Errorf("only %d/%d converged-cluster lookups were one-hop hits, want >= 90%%", got, lookups)
	}

	// Phase 2: steady-state chaos. Dropped verifications may force
	// fallback walks, but every lookup still resolves the true owner.
	nw.SetRules(chaosRules()...)
	for _, key := range keys {
		kid := LiveKeyID(key)
		want := trueOwner(nodes, kid)
		res, err := nodes[2].Lookup(context.Background(), kid)
		if err != nil {
			t.Fatalf("lookup %s under chaos: %v", key, err)
		}
		if res.Owner.Addr != want.Addr() {
			t.Fatalf("lookup %s under chaos: owner %s, want %s", key, res.Owner.Addr, want.Addr())
		}
	}
	nw.SetRules()

	// Phase 3: cut off n7. The majority evicts it from its rings, gossip
	// spreads the tombstone, and majority tables reconverge on the seven
	// survivors; lookups resolve the true owner among them.
	names := make([]string, 0, 7)
	for i := 0; i < 7; i++ {
		names = append(names, fmt.Sprintf("n%d", i))
	}
	nw.Partition(names, []string{"n7"})
	majority := nodes[:7]
	stabilizeAll(t, majority, 6)
	waitRoutesConverged(t, majority, "partitioned majority")
	for _, key := range keys {
		kid := LiveKeyID(key)
		want := trueOwner(majority, kid)
		res, err := majority[1].Lookup(context.Background(), kid)
		if err != nil {
			t.Fatalf("lookup %s during partition: %v", key, err)
		}
		if res.Owner.Addr != want.Addr() {
			t.Fatalf("lookup %s during partition: owner %s, want %s", key, res.Owner.Addr, want.Addr())
		}
	}

	// Phase 4: heal. n7 hears its own tombstone, out-stamps it with a
	// fresh join, and every table reconverges to the identical full view.
	nw.Heal()
	time.Sleep(150 * time.Millisecond) // let open breakers reach half-open
	stabilizeAll(t, nodes, 6)
	waitRoutesConverged(t, nodes, "after heal")
	for _, key := range keys {
		kid := LiveKeyID(key)
		want := trueOwner(nodes, kid)
		res, err := nodes[7].Lookup(context.Background(), kid)
		if err != nil {
			t.Fatalf("lookup %s after heal: %v", key, err)
		}
		if res.Owner.Addr != want.Addr() {
			t.Fatalf("lookup %s after heal: owner %s, want %s", key, res.Owner.Addr, want.Addr())
		}
	}

	// Maintenance cost: gossip is metered, and at the fixpoint one more
	// round costs at most fanout pushes of the full event list per node —
	// replies are empty diffs. The ceiling is computed from the actual
	// converged table, so growth in per-round overhead fails here.
	gossipBefore := uint64(0)
	for _, nd := range nodes {
		gossipBefore += nd.nm.gossipBytes.Value()
	}
	if gossipBefore == 0 {
		t.Error("route_gossip_bytes_total is zero after a full chaos run")
	}
	stabilizeAll(t, nodes, 1)
	gossipAfter := uint64(0)
	for _, nd := range nodes {
		gossipAfter += nd.nm.gossipBytes.Value()
	}
	perPush := routeEventsBytes(nodes[0].Snapshot().Routes) + routeEventsBytes(nil)
	fanout := nodes[0].cfg.SuccListLen + 1 // global successor list plus predecessor
	ceiling := uint64(len(nodes)*fanout) * perPush
	if got := gossipAfter - gossipBefore; got > ceiling {
		t.Errorf("converged maintenance round cost %d gossip bytes, ceiling %d", got, ceiling)
	}

	// Determinism: the injected-fault sequence replays bit-identically.
	events := nw.Events()
	if len(events) == 0 {
		t.Fatal("chaos run injected no faults")
	}
	replayed := faultnet.Replay(chaosSeed, nw.Log())
	if len(replayed) != len(events) {
		t.Fatalf("replay produced %d events, live run %d", len(replayed), len(events))
	}
	for i := range events {
		if events[i].String() != replayed[i].String() {
			t.Fatalf("fault %d diverged: live %q, replay %q", i, events[i], replayed[i])
		}
	}
}

// TestChaosLowerRingClimbOnFailure pins the graceful-degradation path
// directly: when a node's lower ring stops answering routing steps
// entirely, a lookup leaves it for the global ring instead of aborting,
// and finds the true owner. The test used to pin failover_climbs_total:
// the blackout then also hit the walk's first step, which the origin sent
// to its own listener, so every lower-ring walk failed outright. A node no
// longer sends itself messages; the first step is answered in-process and
// cannot be blacked out, so the origin now retires each lower-ring peer
// that fails it (one fully retried step each) and, left a singleton,
// climbs the ordinary way (ring_climbs_total). What is pinned is the
// outcome — 12 of 12 correct owners, every lookup left the lower ring —
// and its price in RPC attempts.
func TestChaosLowerRingClimbOnFailure(t *testing.T) {
	var blackout atomic.Bool
	var attempts atomic.Int64
	wrap := func(self string, inner wire.Caller) wire.Caller {
		return wire.CallerFunc(func(ctx context.Context, addr string, req wire.Request) (wire.Response, error) {
			attempts.Add(1)
			if blackout.Load() && req.Type == wire.TFindClosest && req.Layer >= 2 {
				return wire.Response{}, &wire.NetError{
					Addr: addr, Op: "test:blackout", Sent: false,
					Err: errors.New("lower ring unroutable"),
				}
			}
			return inner.Call(ctx, addr, req)
		})
	}
	// The breaker stays disabled: it tracks peers, not (peer, layer)
	// pairs, and the blackout only concerns lower-layer routing steps.
	nodes := chaosCluster(t, 8, wrap, wire.BreakerPolicy{Threshold: -1})
	blackout.Store(true)
	origin := nodes[0]
	climbs := func() uint64 { return origin.nm.ringClimbs.Value() + origin.nm.failoverClimbs.Value() }
	const trials = 12
	before, sent := climbs(), attempts.Load()
	owned := 0 // keys the origin owns end at the walk's first, in-process step
	for trial := 0; trial < trials; trial++ {
		key := id.HashString(fmt.Sprintf("climb-%d", trial))
		want := trueOwner(nodes, key)
		if want == origin {
			owned++
		}
		res, err := origin.Lookup(context.Background(), key)
		if err != nil {
			t.Fatalf("lookup %d under lower-ring blackout: %v", trial, err)
		}
		if res.Owner.Addr != want.Addr() {
			t.Fatalf("trial %d: owner %s, want %s", trial, res.Owner.Addr, want.Addr())
		}
	}
	if got := climbs() - before; got != uint64(trials-owned) {
		t.Errorf("%d lookups left the lower ring, want %d", got, trials-owned)
	}
	// Each of the origin's three ring peers costs at most one fully retried
	// step (4 attempts) and one eviction notice before it is retired; after
	// that a lookup is its global walk, at most 3 steps among 8 nodes.
	if got, bound := attempts.Load()-sent, int64(3*(4+1)+trials*3); got > bound {
		t.Errorf("%d lookups under blackout took %d RPC attempts, want at most %d", trials, got, bound)
	}
	t.Logf("%d RPC attempts, %d ring climbs, %d failover climbs", attempts.Load()-sent, origin.nm.ringClimbs.Value(), origin.nm.failoverClimbs.Value())
}

// TestChaosSupplierDiesBetweenSteps reaches failover_climbs_total the way
// it can still be reached now that a walk's first step cannot fail: a
// lower-ring hop is lost, and the remote node that supplied it no longer
// answers when the walk goes back to ask for another. Restarting from the
// origin finds the same supplier alive again, and the same thing happens;
// with the restarts used up the ring counts as unroutable and the lookup
// climbs out of it from the origin — to the true owner.
func TestChaosSupplierDiesBetweenSteps(t *testing.T) {
	var (
		mu       sync.Mutex
		origin   string
		path     []string // record mode: the origin's remote lower-ring steps
		supplier string   // script mode: answers unless the hop it supplied was just lost
		hop      string   // script mode: never answers
		lost     bool
	)
	wrap := func(self string, inner wire.Caller) wire.Caller {
		return wire.CallerFunc(func(ctx context.Context, addr string, req wire.Request) (wire.Response, error) {
			if req.Type != wire.TFindClosest || req.Layer < 2 {
				return inner.Call(ctx, addr, req)
			}
			mu.Lock()
			if self == origin {
				path = append(path, addr)
			}
			fail := self == origin && hop != "" && (addr == hop || (addr == supplier && lost))
			if fail {
				lost = addr == hop
			}
			mu.Unlock()
			if fail {
				// Not a NetError: the retrier passes it up at once, so no
				// peer gathers the failures that would get it evicted.
				return wire.Response{}, errors.New("test: routing step lost")
			}
			return inner.Call(ctx, addr, req)
		})
	}
	nodes := chaosCluster(t, 16, wrap, wire.BreakerPolicy{Threshold: -1})
	from := nodes[0]
	mu.Lock()
	origin = from.Addr()
	mu.Unlock()
	// Find a key whose lower-ring walk takes two remote steps.
	var key id.ID
	for trial := 0; ; trial++ {
		if trial == 1000 {
			t.Fatal("no key in 1000 walks two remote lower-ring steps from the origin")
		}
		key = id.HashString(fmt.Sprintf("supplier-%d", trial))
		mu.Lock()
		path = path[:0]
		mu.Unlock()
		if _, err := from.Lookup(context.Background(), key); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		found := len(path) >= 2 && path[0] != path[1]
		if found {
			supplier, hop = path[0], path[1]
		}
		mu.Unlock()
		if found {
			break
		}
	}
	failovers, restarts := from.nm.failoverClimbs.Value(), from.nm.walkRestarts.Value()
	res, err := from.Lookup(context.Background(), key)
	if err != nil {
		t.Fatalf("lookup with a supplier that dies between steps: %v", err)
	}
	if want := trueOwner(nodes, key).Addr(); res.Owner.Addr != want {
		t.Errorf("owner %s, want %s", res.Owner.Addr, want)
	}
	if got := from.nm.failoverClimbs.Value() - failovers; got != 1 {
		t.Errorf("failover_climbs_total moved by %d, want 1", got)
	}
	if got := from.nm.walkRestarts.Value() - restarts; got != maxWalkRestarts {
		t.Errorf("walk_restarts_total moved by %d, want %d", got, maxWalkRestarts)
	}
}
