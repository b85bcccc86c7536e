package transport

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/faultnet"
	"repro/internal/metrics"
	"repro/internal/replica"
	"repro/internal/wire"
)

// antiEntropySeed fixes the injected-fault sequence for the anti-entropy
// chaos harness.
const antiEntropySeed = 7177

// counterValue reads one un-labelled counter/gauge from a node's metrics
// exposition.
func counterValue(t *testing.T, nd *Node, name string) float64 {
	t.Helper()
	var b strings.Builder
	if _, err := nd.Metrics().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s: parse %q: %v", name, rest, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not in exposition", name)
	return 0
}

func clusterCounter(t *testing.T, nodes []*Node, name string) float64 {
	t.Helper()
	var total float64
	for _, nd := range nodes {
		total += counterValue(t, nd, name)
	}
	return total
}

// TestChaosAntiEntropyBoundedConvergence is the digest-sync chaos
// harness: a 6-node cluster with replication factor 3 converges a
// keyspace of large values, a two-node minority is partitioned away,
// the majority overwrites a third of the keys (so the minority's copies
// go stale), and the partition heals. The digest-based anti-entropy
// rounds must re-converge every replica set — latest value everywhere,
// stale copies superseded, strays re-homed — while shipping at most 10%
// of the bytes the same number of full-transfer sweep rounds would
// have: converged peers cost one digest frame, not their whole range.
// A second run must inject the same faults and end in the same state.
func TestChaosAntiEntropyBoundedConvergence(t *testing.T) {
	replays(t, chaosAntiEntropyBoundedConvergence)
}

func chaosAntiEntropyBoundedConvergence(t *testing.T) (*faultnet.Network, []*Node) {
	dn := NewDirectNet()
	nw := faultnet.New(antiEntropySeed, dn.Clock())
	freg := metrics.NewRegistry()
	nw.Instrument(freg)
	nodes := chaosCluster(t, dn, 6, nw.Caller, wire.BreakerPolicy{Threshold: -1}, func(cfg *Config) {
		cfg.Replication = replica.Options{Factor: 3, WriteQuorum: 2, ReadQuorum: 2}
	})

	// A keyspace heavy enough that full-transfer sweeps are expensive:
	// 36 keys of 4 KiB. The digest frame (a few hundred bytes per peer)
	// must amortise against this payload, which is exactly the regime
	// anti-entropy is built for.
	const keyCount = 36
	want := map[string][]byte{}
	keyAt := func(i int) string { return fmt.Sprintf("ae-key-%d", i) }
	for i := 0; i < keyCount; i++ {
		val := bytes.Repeat([]byte{byte('a' + i%26)}, 4096)
		if err := nodes[i%len(nodes)].Put(context.Background(), keyAt(i), val); err != nil {
			t.Fatalf("put %s: %v", keyAt(i), err)
		}
		want[keyAt(i)] = val
	}
	stabilizeAll(t, nodes, 4) // settle every replica set to factor 3

	// Cut off a two-node minority, nodes[2] and nodes[3] (never the
	// landmarks nodes[0]/[1]).
	majority := []*Node{nodes[0], nodes[1], nodes[4], nodes[5]}
	nw.SetRules(faultnet.Rule{Drop: 0.10})
	nw.Partition([]string{"n0", "n1", "n4", "n5"}, []string{"n2", "n3"})
	stabilizeAll(t, majority, 6) // evict the minority, re-home within the majority

	// Divergence: the majority overwrites a third of the keys. The
	// minority still holds the original versions of whichever of these
	// it replicated — stale copies the heal must supersede.
	for i := 0; i < keyCount; i += 3 {
		val := bytes.Repeat([]byte{byte('A' + i%26)}, 4096)
		if err := majority[i%len(majority)].Put(context.Background(), keyAt(i), val); err != nil {
			t.Fatalf("divergent put %s: %v", keyAt(i), err)
		}
		want[keyAt(i)] = val
	}

	nw.Heal()
	nw.SetRules()
	aeBefore := clusterCounter(t, nodes, "antientropy_bytes_total")

	const rounds = 6
	stabilizeAll(t, nodes, rounds)
	for _, nd := range nodes {
		if err := nd.BuildAllFingers(); err != nil {
			t.Fatalf("rebuild fingers after heal: %v", err)
		}
	}

	// Convergence: every replica-set member holds the winning value
	// byte-for-byte, no node outside the set still holds a copy, and
	// every key reads back its latest acknowledged value.
	for i := 0; i < keyCount; i++ {
		key := keyAt(i)
		set := map[string]bool{}
		for _, m := range replicaSetOf(nodes, key, 3) {
			set[m.Addr()] = true
		}
		for _, nd := range nodes {
			v, held := nd.GetLocal(key)
			if set[nd.Addr()] {
				if !held {
					t.Fatalf("replica-set member %s holds no copy of %s after heal", nd.Addr(), key)
				}
				if !bytes.Equal(v, want[key]) {
					t.Fatalf("replica-set member %s holds a stale/diverged copy of %s after heal", nd.Addr(), key)
				}
			} else if held {
				t.Fatalf("%s holds %s outside its replica set after heal", nd.Addr(), key)
			}
		}
		got, err := nodes[(i+1)%len(nodes)].Get(context.Background(), key)
		if err != nil {
			t.Fatalf("get %s after heal: %v", key, err)
		}
		if !bytes.Equal(got, want[key]) {
			t.Fatalf("get %s after heal returned a superseded value", key)
		}
	}

	// Bandwidth bound: the digest rounds that achieved this convergence
	// must have cost at most 10% of what the same number of full-sweep
	// rounds would ship for this keyspace.
	synced := clusterCounter(t, nodes, "antientropy_bytes_total") - aeBefore
	if synced <= 0 {
		t.Fatal("anti-entropy recorded no bytes across the heal")
	}
	var sweepRound uint64
	for _, nd := range nodes {
		b, err := nd.ReplicaFullSweepBytes()
		if err != nil {
			t.Fatalf("full-sweep baseline: %v", err)
		}
		sweepRound += b
	}
	baseline := float64(sweepRound) * rounds
	if baseline == 0 {
		t.Fatal("full-sweep baseline is zero — no data on any node?")
	}
	ratio := synced / baseline
	t.Logf("digest sync: %.0f bytes vs %.0f-byte full-sweep baseline (%.1f%%)", synced, baseline, 100*ratio)
	if ratio > 0.10 {
		t.Errorf("digest sync shipped %.0f bytes, %.1f%% of the %.0f-byte full-sweep baseline (bound 10%%)",
			synced, 100*ratio, baseline)
	}

	if rounds := clusterCounter(t, nodes, "antientropy_rounds_total"); rounds == 0 {
		t.Error("antientropy_rounds_total is zero despite stabilization rounds")
	}
	return nw, nodes
}
