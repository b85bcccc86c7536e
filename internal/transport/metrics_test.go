package transport

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/wire"
)

// TestHopCountersMatchLookups is the live-node counterpart of the paper's
// hop accounting: across a three-node overlay, the per-layer hop counters
// a node exports must sum exactly to the hop counts its lookups reported.
func TestHopCountersMatchLookups(t *testing.T) {
	nodes := builtCluster(t, 3)
	src := nodes[1]

	var wantTotal uint64
	perLayer := make([]uint64, 2)
	for trial := 0; trial < 30; trial++ {
		key := id.HashString(fmt.Sprintf("metric-key-%d", trial))
		res, err := src.Lookup(context.Background(), key)
		if err != nil {
			t.Fatalf("lookup %d: %v", trial, err)
		}
		layerSum := 0
		for l, h := range res.LayerHops[:len(perLayer)] {
			layerSum += h
			perLayer[l] += uint64(h)
		}
		if layerSum != res.Hops {
			t.Fatalf("trial %d: LayerHops %v sum to %d, Hops = %d",
				trial, res.LayerHops, layerSum, res.Hops)
		}
		wantTotal += uint64(res.Hops)
	}

	var gotTotal uint64
	for l := range perLayer {
		c := src.nm.hops.At(l)
		if c.Value() != perLayer[l] {
			t.Errorf("hops_total{layer=%d} = %d, want %d", l+1, c.Value(), perLayer[l])
		}
		gotTotal += c.Value()
	}
	if gotTotal != wantTotal {
		t.Errorf("sum of per-layer hop counters = %d, lookups reported %d", gotTotal, wantTotal)
	}
	if src.nm.lookups.Value() != 30 {
		t.Errorf("lookups_total = %d, want 30", src.nm.lookups.Value())
	}
}

// TestMetricsExposition asserts the wire-format names the README and the
// acceptance criteria promise, served over HTTP exactly as hieras-node
// -metrics does.
func TestMetricsExposition(t *testing.T) {
	nodes := cluster(t, 3)
	src := nodes[0]
	if _, err := src.Lookup(context.Background(), id.HashString("expo-key")); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(src.Metrics().Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<20)
	n, _ := resp.Body.Read(buf)
	out := string(buf[:n])

	for _, want := range []string{
		`rpc_requests_total{type="find_closest"}`,
		`rpc_requests_total{type="ping"}`,
		"rpc_latency_seconds_bucket{le=",
		"rpc_latency_seconds_count",
		"rpc_bytes_in_total",
		"rpc_bytes_out_total",
		`rpc_server_requests_total{type=`,
		`hops_total{layer="1"}`,
		`hops_total{layer="2"}`,
		"ring_climbs_total",
		"lookups_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestNodeMetricsExposition pins a freshly started node's whole
// exposition, byte for byte: every name, label, HELP and TYPE line,
// bucket and their order. bench/perf and dashboards parse this text, so
// a change to how the registry stores metrics must not show here. To
// change a metric on purpose, regenerate testdata/metrics-fresh.txt from
// this node's WriteTo output.
func TestNodeMetricsExposition(t *testing.T) {
	ln, err := wire.NewMemNet().Listen("fresh")
	if err != nil {
		t.Fatal(err)
	}
	nd, err := Start("", Config{Listener: ln, RouteMode: RouteOneHop})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	var b strings.Builder
	if _, err = nd.Metrics().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/metrics-fresh.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("a fresh node's exposition differs from testdata/metrics-fresh.txt:\n%s", got)
	}
}

func TestRPCCountersMove(t *testing.T) {
	nd, err := Start("127.0.0.1:0", Config{Depth: 1, CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if err := nd.CreateNetwork(); err != nil {
		t.Fatal(err)
	}
	// A served ping increments the server-side counter and byte totals.
	if _, err := wireCall(nd.Addr(), wire.Request{Type: wire.TPing}, time.Second); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if _, err := nd.Metrics().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `rpc_server_requests_total{type="ping"} 1`) {
		t.Errorf("server ping counter not recorded:\n%s", out)
	}
	if strings.Contains(out, "rpc_bytes_in_total 0\n") {
		t.Error("rpc_bytes_in_total still zero after a served request")
	}
}
