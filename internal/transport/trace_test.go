package transport

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/binning"
	"repro/internal/id"
	"repro/internal/trace"
	"repro/internal/wire"
)

// depthCluster starts n nodes "n0".."n<n-1>" at the given depth on a
// direct net of their own, binned by constant probers of one landmark into
// two layer-2 rings of even and odd indexes, each split in two layer-3
// rings, and installs them.
func depthCluster(t *testing.T, depth, n int, tweaks ...func(*Config)) []*Node {
	t.Helper()
	// DefaultLadder: layer 2 splits at 20 ms, layer 3 at 10 and 50 ms too.
	lats := [4]constProber{5, 30, 15, 70}
	dn := NewDirectNet()
	var nodes []*Node
	for i := 0; i < n; i++ {
		cfg := Config{Depth: depth, Landmarks: []string{"lm"}, Prober: lats[i%4], CallTimeout: 5 * time.Second}
		for _, tweak := range tweaks {
			tweak(&cfg)
		}
		nodes = append(nodes, startNode(t, dn, "n"+strconv.Itoa(i), cfg))
	}
	return install(t, nodes)
}

// TestLiveTraceMatchesResult: a traced lookup records, per layer, one
// find_closest for each hop LayerHops reports there, less the one hop that
// is no message: the final forward from the owner's global predecessor,
// which reaches the owner without asking it. A one-hop answer is one call,
// or none and no hop when the origin owns the key. A traced Put or Get
// records exactly the calls the origin's count seam saw, type by type. And
// the trace.Record a lookup converts to survives trace's CSV unchanged, so
// traceview reads a live run as it reads a simulated one.
func TestLiveTraceMatchesResult(t *testing.T) {
	lookups, ops := 1000, 40
	if testing.Short() {
		lookups, ops = 200, 10
	}
	for depth := 1; depth <= 3; depth++ {
		for _, mode := range []string{RouteClassic, RouteOneHop} {
			t.Run(fmt.Sprintf("depth%d/%s", depth, mode), func(t *testing.T) {
				nodes := depthCluster(t, depth, 16, replicaTweak(3, mode))
				if got := len(nodes[0].RingNames()); got != depth-1 {
					t.Fatalf("%d ring names at depth %d", got, depth)
				}
				rng := rand.New(rand.NewSource(int64(depth)))
				var tr Trace
				ctx := WithTrace(context.Background(), &tr)
				var records []trace.Record
				hinted, calls := 0, 0
				var layerHops [binning.MaxDepth]int
				for i := 0; i < lookups; i++ {
					from, key := nodes[rng.Intn(len(nodes))], id.Rand(rng)
					tr.Calls = tr.Calls[:0]
					res, err := from.Lookup(ctx, key)
					if err != nil {
						t.Fatalf("lookup %d from %s: %v", i, from.Addr(), err)
					}
					if want := trueOwner(nodes, key).Addr(); res.Owner.Addr != want {
						t.Fatalf("lookup %d from %s found %s, true owner %s", i, from.Addr(), res.Owner.Addr, want)
					}
					var sent [binning.MaxDepth]int
					askedOwner := false
					for _, c := range tr.Calls {
						if c.Type != wire.TFindClosest || c.Failed || c.Addr == from.Addr() || (c.Climbed != 0 && c.Climbed >= c.Layer) {
							t.Fatalf("lookup %d from %s traced %+v", i, from.Addr(), c)
						}
						sent[c.Layer-1]++
						askedOwner = askedOwner || c.Addr == res.Owner.Addr
					}
					want := res.LayerHops
					if res.Hops > 0 && !askedOwner {
						want[0]--
					}
					if sent != want {
						t.Fatalf("lookup %d from %s: find_closest per layer %v for LayerHops %v (owner %s asked: %v)",
							i, from.Addr(), sent[:depth], res.LayerHops[:depth], res.Owner.Addr, askedOwner)
					}
					if res.OneHop {
						hinted++
						if len(tr.Calls) != 1 && (res.Hops != 0 || res.Owner.Addr != from.Addr()) {
							t.Fatalf("lookup %d from %s: one-hop answer %+v after %d calls", i, from.Addr(), res, len(tr.Calls))
						}
					}
					calls += len(tr.Calls)
					for l, h := range res.LayerHops {
						layerHops[l] += h
					}
					rec := tr.Record(res)
					rec.Seq = i
					records = append(records, rec)
				}
				if (mode == RouteOneHop) != (hinted > 0) {
					t.Errorf("%d of %d lookups answered by the one-hop table in %s mode", hinted, lookups, mode)
				}
				traced := func(what string, op func(*Node) error) {
					from := nodes[rng.Intn(len(nodes))]
					before := rpcsByType(t, from)
					tr.Calls = tr.Calls[:0]
					if err := op(from); err != nil {
						t.Fatalf("%s from %s: %v", what, from.Addr(), err)
					}
					byType := map[string]float64{}
					for _, c := range tr.Calls {
						byType[c.Type.String()]++
					}
					if seen := rpcsSince(t, before, from); !reflect.DeepEqual(byType, seen) {
						t.Fatalf("%s from %s: traced %v, the count seam saw %v", what, from.Addr(), byType, seen)
					}
				}
				for i := 0; i < ops; i++ {
					key := fmt.Sprintf("traced-%d", i)
					traced("put "+key, func(from *Node) error { return from.Put(ctx, key, []byte("v")) })
					traced("get "+key, func(from *Node) error { _, err := from.Get(ctx, key); return err })
				}
				var csv bytes.Buffer
				w := trace.NewWriter(&csv)
				for _, r := range records {
					if err := w.Write(r); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				back, err := trace.Read(&csv)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(back, records) {
					t.Fatal("the live records did not survive trace's CSV")
				}
				a, err := trace.Analyze(back)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%d lookups: %.2f hops (per layer %v) and %.2f find_closest each; %d answered by the one-hop table",
					lookups, a.Hops.Mean, layerHops[:depth], float64(calls)/float64(lookups), hinted)
			})
		}
	}
}
