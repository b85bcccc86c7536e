package transport

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/metrics"
	"repro/internal/replica"
	"repro/internal/wire"
)

// replicaChaosSeed fixes the injected-fault sequence for the replication
// chaos harness.
const replicaChaosSeed = 2024

// byIDOrder returns the nodes sorted ascending by identifier — ring
// order, which is also replica-set order.
func byIDOrder(nodes []*Node) []*Node {
	out := append([]*Node(nil), nodes...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID().Less(out[j].ID()) })
	return out
}

// replicaSetOf computes a key's expected replica set among the given
// nodes: the owner (clockwise successor of the key) plus the next
// factor-1 nodes in ring order.
func replicaSetOf(nodes []*Node, key string, factor int) []*Node {
	ring := byIDOrder(nodes)
	kid := LiveKeyID(key)
	start := 0
	for i, nd := range ring {
		if !nd.ID().Less(kid) {
			start = i
			break
		}
	}
	set := make([]*Node, 0, factor)
	for d := 0; d < factor && d < len(ring); d++ {
		set = append(set, ring[(start+d)%len(ring)])
	}
	return set
}

// TestChaosReplicationSurvivesCrashesAndPartition is the replication
// chaos harness: an 8-node cluster with replication factor 3 and
// majority quorums acknowledges a wave of writes, then two members of
// one key's replica set crash mid-write — after the write was
// acknowledged but before re-replication could run. Death-triggered
// sweeps must restore the factor, a minority partition is cut and
// healed, and every acknowledged write must stay readable throughout.
// A second run must inject the same faults and leave the survivors in the
// same state.
func TestChaosReplicationSurvivesCrashesAndPartition(t *testing.T) {
	replays(t, chaosReplicationSurvives)
}

func chaosReplicationSurvives(t *testing.T) (*faultnet.Network, []*Node) {
	dn := NewDirectNet()
	nw := faultnet.New(replicaChaosSeed, dn.Clock())
	freg := metrics.NewRegistry()
	nw.Instrument(freg)

	// midwrite is armed with the address of the first crash victim; the
	// wrapper lets that victim apply one TStorePut for the mid-write key
	// (so the write quorum is reached), then crashes both victims before
	// the coordinator can reach the third member. Everything runs on the
	// test goroutine — Put is synchronous — so no locking is needed.
	var (
		victimAddr string
		midKey     string
		crash      func()
		crashed    bool
	)
	wrap := func(self string, inner wire.Caller) wire.Caller {
		faulty := nw.Caller(self, inner)
		return wire.CallerFunc(func(ctx context.Context, addr string, req wire.Request) (wire.Response, error) {
			resp, err := faulty.Call(ctx, addr, req)
			if !crashed && addr == victimAddr && req.Type == wire.TStorePut && req.Name == midKey && err == nil {
				crashed = true
				crash()
			}
			return resp, err
		})
	}

	// Replication factor 3 with majority write quorum and a 2-answer
	// read quorum, so reads cross-check replicas.
	nodes := chaosCluster(t, dn, 8, wrap, wire.BreakerPolicy{Threshold: -1}, func(cfg *Config) {
		cfg.Replication = replica.Options{Factor: 3, WriteQuorum: 2, ReadQuorum: 2}
	})

	// Wave 1: acknowledged writes across the cluster. Every one of these
	// must stay readable until the end of the test, through two crashes
	// and a partition — that is the durability contract W=2 buys.
	acked := map[string]string{}
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("chaos-rep-%d", i)
		val := "v-" + key
		if err := nodes[i%len(nodes)].Put(context.Background(), key, []byte(val)); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
		acked[key] = val
	}

	// Pick a mid-write key whose second and third replica-set members are
	// both crashable (not the landmarks nodes[0] and nodes[1]).
	landmark := map[*Node]bool{nodes[0]: true, nodes[1]: true}
	var victims []*Node
	for i := 0; midKey == ""; i++ {
		key := fmt.Sprintf("mid-write-%d", i)
		set := replicaSetOf(nodes, key, 3)
		if !landmark[set[1]] && !landmark[set[2]] {
			midKey = key
			victims = []*Node{set[1], set[2]}
		}
		if i > 256 {
			t.Fatal("no key found with two crashable replica-set members")
		}
	}
	victimAddr = victims[0].Addr()
	crash = func() {
		for _, v := range victims {
			_ = v.Close()
		}
	}

	// The mid-write put: the owner and the first replica ack (write
	// quorum reached), then both non-owner members crash. The write is
	// acknowledged with a single surviving copy.
	midVal := "v-" + midKey
	if err := nodes[0].Put(context.Background(), midKey, []byte(midVal)); err != nil {
		t.Fatalf("mid-write put %s: %v", midKey, err)
	}
	if !crashed {
		t.Fatalf("crash hook never fired: %s did not route a store to %s", midKey, victimAddr)
	}
	acked[midKey] = midVal
	keys := slices.Sorted(maps.Keys(acked)) // one order, so that two runs issue the same calls

	survivors := make([]*Node, 0, len(nodes)-2)
	for _, nd := range nodes {
		if nd != victims[0] && nd != victims[1] {
			survivors = append(survivors, nd)
		}
	}

	// Death-triggered re-replication: suspicion evicts the crashed
	// members and the sweeps re-home their keys. Every acknowledged
	// write must read back, mid-write key included.
	stabilizeAll(t, survivors, 6)
	for _, nd := range survivors {
		if err := nd.BuildAllFingers(); err != nil {
			t.Fatalf("rebuild fingers after crashes: %v", err)
		}
	}
	for _, key := range keys {
		want := acked[key]
		v, err := survivors[2].Get(context.Background(), key)
		if err != nil {
			t.Fatalf("get %s after double crash: %v", key, err)
		}
		if string(v) != want {
			t.Fatalf("get %s after double crash = %q, want %q", key, v, want)
		}
	}

	// Cut off a two-node minority (never the landmarks), with steady
	// chaos noise on the majority side's links. The majority evicts the
	// minority, sweeps restore every replica set within the majority,
	// and all acknowledged writes stay readable there.
	var minority, majority []*Node
	for _, nd := range survivors {
		if !landmark[nd] && len(minority) < 2 {
			minority = append(minority, nd)
		} else {
			majority = append(majority, nd)
		}
	}
	var minNames, majNames []string
	for _, nd := range minority {
		minNames = append(minNames, nd.Addr())
	}
	for _, nd := range majority {
		majNames = append(majNames, nd.Addr())
	}
	nw.SetRules(faultnet.Rule{Drop: 0.10}, faultnet.Rule{Delay: time.Millisecond})
	nw.Partition(majNames, minNames)
	stabilizeAll(t, majority, 6)
	for _, nd := range majority {
		if err := nd.BuildAllFingers(); err != nil {
			t.Fatalf("rebuild fingers under partition: %v", err)
		}
	}
	for _, key := range keys {
		want := acked[key]
		v, err := majority[1].Get(context.Background(), key)
		if err != nil {
			t.Fatalf("get %s during partition: %v", key, err)
		}
		if string(v) != want {
			t.Fatalf("get %s during partition = %q, want %q", key, v, want)
		}
	}

	// Heal, drop the noise, reassemble, and require every surviving node
	// to serve every acknowledged write.
	nw.Heal()
	nw.SetRules()
	stabilizeAll(t, survivors, 6)
	for _, nd := range survivors {
		if err := nd.BuildAllFingers(); err != nil {
			t.Fatalf("rebuild fingers after heal: %v", err)
		}
	}
	for _, nd := range survivors {
		for _, key := range keys {
			want := acked[key]
			v, err := nd.Get(context.Background(), key)
			if err != nil {
				t.Fatalf("get %s from %s after heal: %v", key, nd.Addr(), err)
			}
			if string(v) != want {
				t.Fatalf("get %s from %s after heal = %q, want %q", key, nd.Addr(), v, want)
			}
		}
	}

	// The re-replication work must be visible in the metrics exposition
	// of at least one survivor: sweeps pushed bytes and the quorum
	// histograms recorded traffic.
	sawRerepl := false
	for _, nd := range survivors {
		var b strings.Builder
		if _, err := nd.Metrics().WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		s := b.String()
		for _, name := range []string{"rereplication_bytes_total", "replica_lag", "quorum_write_seconds", "quorum_read_seconds"} {
			if !strings.Contains(s, name) {
				t.Errorf("exposition missing %s", name)
			}
		}
		if strings.Contains(s, "rereplication_bytes_total ") && !strings.Contains(s, "rereplication_bytes_total 0\n") {
			sawRerepl = true
		}
	}
	if !sawRerepl {
		t.Error("no survivor recorded re-replication bytes despite two crashed replica holders")
	}
	return nw, survivors
}
