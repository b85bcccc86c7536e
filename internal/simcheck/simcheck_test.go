package simcheck

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/lint/leakcheck"

	"repro/internal/transport"
	"repro/internal/wire"
)

// TestHealthyProperty: the honest protocol survives randomized
// join/leave/fail/put/get/lookup/partition/heal programs with every
// invariant intact, including the implicit final quiescent checkpoint.
func TestHealthyProperty(t *testing.T) {
	leakcheck.Watchdog(t, 2*time.Minute)
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			if f := Run(Config{Seed: seed}); f != nil {
				t.Fatalf("property failed:\n%v", f)
			}
		})
	}
}

// TestHealthyPropertyDepth3 runs a three-layer cluster through the same
// property — rings of rings, with ring tables on two lower layers.
func TestHealthyPropertyDepth3(t *testing.T) {
	if f := Run(Config{Seed: 5, Depth: 3}); f != nil {
		t.Fatalf("property failed:\n%v", f)
	}
}

// TestHealthyPropertyWithTTL runs the property with a data lifetime
// configured: programs now contain deletes and clock jumps, leases
// lapse mid-program, owners republish, and the lifecycle invariants
// (expired data purged at fixpoints, acknowledged deletes stay deleted)
// must hold alongside everything else.
func TestHealthyPropertyWithTTL(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			if f := Run(Config{Seed: seed, TTL: 12}); f != nil {
				t.Fatalf("property failed:\n%v", f)
			}
		})
	}
}

// TestDeleteLifecycleProgram pins the deterministic delete story: an
// acknowledged delete makes the key unreadable at the next quiescent
// checkpoint, a later put resurrects it, and churn in between does not
// bring the tombstoned value back.
func TestDeleteLifecycleProgram(t *testing.T) {
	if f := Replay(0, []Op{
		{Kind: OpPut, Slot: 0, Key: "k", Value: "v1"},
		{Kind: OpCheck},
		{Kind: OpDelete, Slot: 3, Key: "k"},
		{Kind: OpJoin, Slot: 2},
		{Kind: OpFail, Slot: 2},
		{Kind: OpCheck},
		{Kind: OpPut, Slot: 1, Key: "k", Value: "v2"},
		{Kind: OpCheck},
	}); f != nil {
		t.Fatalf("delete lifecycle program failed:\n%v", f)
	}
}

// TestSplitDeleteThenPutPrograms pins the mirror of OpDelete's partition
// case: a delete on one side of a partition, then a put acknowledged on
// the other. Each tombstone and value is stamped past only what its own
// side had seen, so the heal's LWW merge may keep the tombstone, and the
// acknowledged put promises nothing. The programs are seeds 251 and
// 262 shrunk: a model that holds the cluster to that put fails both.
func TestSplitDeleteThenPutPrograms(t *testing.T) {
	for _, p := range []struct {
		seed int64
		ops  []Op
	}{
		{251, []Op{
			{Kind: OpPartition},
			{Kind: OpDelete, Slot: 1, Key: "delta"},
			{Kind: OpPut, Slot: 4, Key: "delta", Value: "v1"},
		}},
		{262, []Op{
			{Kind: OpPartition},
			{Kind: OpPut, Slot: 4, Key: "delta", Value: "v1"},
			{Kind: OpDelete, Slot: 0, Key: "delta"},
			{Kind: OpPut, Slot: 1, Key: "delta", Value: "v2"},
		}},
	} {
		if f := Replay(p.seed, p.ops); f != nil {
			t.Errorf("seed %d's program failed:\n%v", p.seed, f)
		}
	}
}

// TestSmallRingForgetsDepartedPrograms pins the two programs that hold a
// lower ring smaller than a successor list to forgetting a member that
// left or failed. A lower ring copies its successor's list, and the copy
// stops before it wraps past the copying node; a copy that only skipped
// itself and duplicates would pass the departed member round the small
// ring forever. The programs are seeds 3 and 2 shrunk: with that copy
// the first fails ring-consistency and the second quiescence.
func TestSmallRingForgetsDepartedPrograms(t *testing.T) {
	for _, p := range []struct {
		seed int64
		ops  []Op
	}{
		{3, []Op{
			{Kind: OpJoin, Slot: 3},
			{Kind: OpJoin, Slot: 7},
			{Kind: OpLeave, Slot: 3},
		}},
		{2, []Op{
			{Kind: OpJoin, Slot: 6},
			{Kind: OpJoin, Slot: 2},
			{Kind: OpJoin, Slot: 4},
			{Kind: OpFail, Slot: 6},
		}},
	} {
		if f := Replay(p.seed, p.ops); f != nil {
			t.Errorf("seed %d's program failed:\n%v", p.seed, f)
		}
	}
}

// TestExpiryProgram pins the lease story: data written under a TTL
// survives ordinary op-to-op ticks (owners republish before expiry),
// but a clock jump past the lease expires it everywhere — reads stop
// returning it and no node still holds a copy at the fixpoint.
func TestExpiryProgram(t *testing.T) {
	cfg := Config{TTL: 10}
	if f := cfg.Replay([]Op{
		{Kind: OpPut, Slot: 0, Key: "k", Value: "v"},
		{Kind: OpCheck}, // lease alive: the key must read back
		{Kind: OpGet, Slot: 2, Key: "k"},
		{Kind: OpTick, Slot: 25}, // jump past any renewable lease
		{Kind: OpGet, Slot: 1, Key: "k"},
		{Kind: OpCheck}, // lease lapsed: purged everywhere at the fixpoint
	}); f != nil {
		t.Fatalf("expiry program failed:\n%v", f)
	}
}

// TestSeededBugCaughtAndShrunk is the harness's acceptance test: a
// deliberately seeded maintenance bug — one layer's ring repair withheld
// — must be caught by the invariant suite, shrunk to a program of at
// most 10 operations, and replayable from the printed artifact.
func TestSeededBugCaughtAndShrunk(t *testing.T) {
	leakcheck.Watchdog(t, 2*time.Minute)
	buggy := Config{Seed: 42, SkipRepairLayer: 2}
	f := Run(buggy)
	if f == nil {
		t.Fatal("invariant suite did not catch the seeded repair-skip bug")
	}
	t.Logf("caught %q in %d ops (%v):\n%s", f.Invariant, len(f.Ops), f.Elapsed, f.Artifact)
	if len(f.Ops) > 10 {
		t.Errorf("shrunk program has %d ops, want <= 10:\n%s", len(f.Ops), f.Artifact)
	}
	if !strings.Contains(f.Artifact, "simcheck.Replay(42, []simcheck.Op{") {
		t.Errorf("artifact is not a Replay call:\n%s", f.Artifact)
	}
	// The artifact reproduces the same violation under the buggy config.
	g := buggy.Replay(f.Ops)
	if g == nil {
		t.Fatal("shrunk program does not reproduce the failure on replay")
	}
	if g.Invariant != f.Invariant {
		t.Errorf("replay tripped %q, original run tripped %q", g.Invariant, f.Invariant)
	}
	// The honest protocol passes the very same program: the bug is the
	// withheld maintenance, not the operation sequence.
	if h := (Config{Seed: 42}).Replay(f.Ops); h != nil {
		t.Errorf("honest protocol fails the shrunk program too — bug not isolated: %v", h)
	}
}

// TestSeededReplicationBugCaughtAndShrunk: the replication acceptance
// test. A seeded fault that acknowledges quorum writes while silently
// dropping every replica copy (no replica writes, no sweeps, no
// read-repair) must be caught by the durability/placement invariants,
// shrunk to a handful of operations, and replayable from the artifact —
// while the honest protocol passes the identical program.
func TestSeededReplicationBugCaughtAndShrunk(t *testing.T) {
	buggy := Config{Seed: 42, ReplicationBug: true}
	f := Run(buggy)
	if f == nil {
		t.Fatal("invariant suite did not catch the seeded replication bug")
	}
	t.Logf("caught %q in %d ops (%v):\n%s", f.Invariant, len(f.Ops), f.Elapsed, f.Artifact)
	switch f.Invariant {
	case "durability", "replica-placement", "get-availability", "data-safety":
	default:
		t.Errorf("tripped %q; a dropped-replica bug should fail a replication invariant", f.Invariant)
	}
	if len(f.Ops) > 10 {
		t.Errorf("shrunk program has %d ops, want <= 10:\n%s", len(f.Ops), f.Artifact)
	}
	if !strings.Contains(f.Artifact, "simcheck.Replay(42, []simcheck.Op{") {
		t.Errorf("artifact is not a Replay call:\n%s", f.Artifact)
	}
	// The artifact reproduces the same violation under the buggy config.
	g := buggy.Replay(f.Ops)
	if g == nil {
		t.Fatal("shrunk program does not reproduce the failure on replay")
	}
	if g.Invariant != f.Invariant {
		t.Errorf("replay tripped %q, original run tripped %q", g.Invariant, f.Invariant)
	}
	// The honest protocol passes the very same program: the bug is the
	// dropped replication, not the operation sequence.
	if h := (Config{Seed: 42}).Replay(f.Ops); h != nil {
		t.Errorf("honest protocol fails the shrunk program too — bug not isolated: %v", h)
	}
}

// TestSeededRouteGossipBugCaughtAndShrunk: the one-hop acceptance test.
// A seeded fault that silently drops all route gossip — pushes skipped,
// incoming events acknowledged and discarded — leaves every node's
// one-hop table knowing only what it learned locally. The
// route-table-accuracy invariant must catch the divergence at a
// quiescent checkpoint, shrink it to a handful of operations, and
// yield a replayable artifact — while the honest protocol passes the
// identical program.
func TestSeededRouteGossipBugCaughtAndShrunk(t *testing.T) {
	buggy := Config{Seed: 42, RouteGossipBug: true}
	f := Run(buggy)
	if f == nil {
		t.Fatal("invariant suite did not catch the seeded route-gossip bug")
	}
	t.Logf("caught %q in %d ops (%v):\n%s", f.Invariant, len(f.Ops), f.Elapsed, f.Artifact)
	if f.Invariant != "route-table-accuracy" {
		t.Errorf("tripped %q; a dropped-gossip bug should fail route-table-accuracy", f.Invariant)
	}
	if len(f.Ops) > 10 {
		t.Errorf("shrunk program has %d ops, want <= 10:\n%s", len(f.Ops), f.Artifact)
	}
	if !strings.Contains(f.Artifact, "simcheck.Replay(42, []simcheck.Op{") {
		t.Errorf("artifact is not a Replay call:\n%s", f.Artifact)
	}
	// The artifact reproduces the same violation under the buggy config.
	g := buggy.Replay(f.Ops)
	if g == nil {
		t.Fatal("shrunk program does not reproduce the failure on replay")
	}
	if g.Invariant != f.Invariant {
		t.Errorf("replay tripped %q, original run tripped %q", g.Invariant, f.Invariant)
	}
	// The honest protocol passes the very same program: the bug is the
	// withheld dissemination, not the operation sequence.
	if h := (Config{Seed: 42}).Replay(f.Ops); h != nil {
		t.Errorf("honest protocol fails the shrunk program too — bug not isolated: %v", h)
	}
}

// TestSeededBugDeterministic: two full runs against the seeded bug find
// the same invariant and shrink to the identical program — the property
// the whole replay/artifact story rests on.
func TestSeededBugDeterministic(t *testing.T) {
	buggy := Config{Seed: 42, SkipRepairLayer: 2}
	a, b := Run(buggy), Run(buggy)
	if a == nil || b == nil {
		t.Fatal("seeded bug not caught on both runs")
	}
	if a.Invariant != b.Invariant || !reflect.DeepEqual(a.Ops, b.Ops) {
		t.Fatalf("runs diverged:\n  first  %q %v\n  second %q %v", a.Invariant, a.Ops, b.Invariant, b.Ops)
	}
}

// TestReplayEmptyProgram: the bootstrapped two-landmark cluster itself
// satisfies every invariant (a program of zero ops still ends with a
// full quiescent checkpoint).
func TestReplayEmptyProgram(t *testing.T) {
	if f := Replay(0, nil); f != nil {
		t.Fatalf("empty program failed: %v", f)
	}
}

// TestGenerateWellFormed: programs are a pure function of the seed and
// respect the executor's legality rules, so generated runs are dense
// with effective operations.
func TestGenerateWellFormed(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		cfg := Config{Seed: seed}.withDefaults()
		ops := generate(cfg)
		if !reflect.DeepEqual(ops, generate(cfg)) {
			t.Fatalf("seed %d: generator is not deterministic", seed)
		}
		partitioned := false
		for i, op := range ops {
			switch op.Kind {
			case OpPartition:
				partitioned = true
			case OpHeal:
				partitioned = false
			case OpJoin, OpLeave:
				if partitioned {
					t.Fatalf("seed %d: op %d %s during a partition", seed, i, op)
				}
				if op.Slot < 2 {
					t.Fatalf("seed %d: op %d %s targets a landmark", seed, i, op)
				}
			case OpFail:
				if op.Slot < 2 {
					t.Fatalf("seed %d: op %d %s targets a landmark", seed, i, op)
				}
			}
		}
		if partitioned {
			t.Fatalf("seed %d: program ends partitioned", seed)
		}
	}
}

// TestDdmin exercises the shrinker against a synthetic predicate with a
// known minimum, no cluster involved: the program fails iff it joins
// slot 3 and later fails slot 3.
func TestDdmin(t *testing.T) {
	ops := []Op{
		{Kind: OpPut, Slot: 1, Key: "alpha", Value: "v0"},
		{Kind: OpJoin, Slot: 4},
		{Kind: OpJoin, Slot: 3},
		{Kind: OpLookup, Slot: 0, Key: "beta"},
		{Kind: OpPartition},
		{Kind: OpHeal},
		{Kind: OpGet, Slot: 2, Key: "alpha"},
		{Kind: OpFail, Slot: 3},
		{Kind: OpCheck},
		{Kind: OpLeave, Slot: 4},
	}
	fails := func(sub []Op) bool {
		joined := false
		for _, op := range sub {
			if op.Kind == OpJoin && op.Slot == 3 {
				joined = true
			}
			if op.Kind == OpFail && op.Slot == 3 && joined {
				return true
			}
		}
		return false
	}
	got := ddmin(ops, fails)
	want := []Op{{Kind: OpJoin, Slot: 3}, {Kind: OpFail, Slot: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ddmin returned %v, want %v", got, want)
	}
}

// TestShrinkValues: field-wise shrinking canonicalises keys, values and
// slots when the predicate does not depend on them.
func TestShrinkValues(t *testing.T) {
	ops := []Op{{Kind: OpPut, Slot: 5, Key: "epsilon", Value: "v17"}}
	fails := func(sub []Op) bool {
		return len(sub) == 1 && sub[0].Kind == OpPut
	}
	got := shrinkValues(ops, fails)
	want := []Op{{Kind: OpPut, Slot: 0, Key: "k", Value: "v"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shrinkValues returned %v, want %v", got, want)
	}
}

// TestLifecycleInvariantCatches feeds checkLifecycle fabricated worlds
// containing exactly the violations it exists to catch — an expired
// item surviving a fixpoint, and a deleted key resurrected as a live
// value — proving the invariant is not vacuously true.
func TestLifecycleInvariantCatches(t *testing.T) {
	m := &model{vals: map[string]map[string]bool{}, acked: map[string]bool{}, deleted: map[string]bool{}}
	live := func(items ...wire.StoreItem) []nodeView {
		return []nodeView{{Snap: transport.Snapshot{Addr: "n0", Items: items}}}
	}

	expired := &world{Now: 100, Model: m,
		Live: live(wire.StoreItem{Key: "k", Value: []byte("v"), Expire: 50})}
	if err := checkLifecycle(expired); err == nil || !strings.Contains(err.Error(), "lease expired") { //lint:allow wraperr the failure message is the shrink artifact a human reads; its wording is what this test pins
		t.Errorf("expired item survived checkLifecycle: %v", err)
	}

	alive := &world{Now: 100, Model: m,
		Live: live(wire.StoreItem{Key: "k", Value: []byte("v"), Expire: 200})}
	if err := checkLifecycle(alive); err != nil {
		t.Errorf("unexpired item tripped checkLifecycle: %v", err)
	}

	resurrected := &world{Now: 100,
		Model: &model{deleted: map[string]bool{"gone": true}},
		Live:  live(wire.StoreItem{Key: "gone", Value: []byte("zombie"), Version: 9})}
	if err := checkLifecycle(resurrected); err == nil || !strings.Contains(err.Error(), "resurrected") { //lint:allow wraperr the failure message is the shrink artifact a human reads; its wording is what this test pins
		t.Errorf("resurrected delete survived checkLifecycle: %v", err)
	}

	tombstoned := &world{Now: 100,
		Model: &model{deleted: map[string]bool{"gone": true}},
		Live:  live(wire.StoreItem{Key: "gone", Version: 9, Tombstone: true})}
	if err := checkLifecycle(tombstoned); err != nil {
		t.Errorf("tombstone tripped checkLifecycle: %v", err)
	}
}

// TestArtifactRendering pins the replay artifact format — the thing a
// developer copies out of a CI log into a test file.
func TestArtifactRendering(t *testing.T) {
	got := Program(7, []Op{
		{Kind: OpJoin, Slot: 2},
		{Kind: OpPut, Slot: 0, Key: "k", Value: "v"},
		{Kind: OpPartition},
	})
	want := "simcheck.Replay(7, []simcheck.Op{\n" +
		"\t{Kind: simcheck.OpJoin, Slot: 2},\n" +
		"\t{Kind: simcheck.OpPut, Slot: 0, Key: \"k\", Value: \"v\"},\n" +
		"\t{Kind: simcheck.OpPartition},\n" +
		"})"
	if got != want {
		t.Fatalf("artifact rendering drifted:\n%s\nwant:\n%s", got, want)
	}
}

// TestFingerDefinitionCatches feeds checkFingerDefinition a node holding
// one finger less than 2^k past it in slot k, and the same finger one slot
// lower, where it meets the definition.
func TestFingerDefinitionCatches(t *testing.T) {
	self := transport.NodeID("n0")
	var near wire.Peer
	for i := 1; near.Addr == ""; i++ {
		if a := slotAddr(i); id.Dist(self, transport.NodeID(a)).BitLen() < id.Bits {
			near = wire.Peer{Addr: a, ID: [20]byte(transport.NodeID(a))}
		}
	}
	k := id.Dist(self, id.ID(near.ID)).BitLen() // near is less than 2^k past self
	withFinger := func(slot int) *world {
		fingers := make([]wire.Peer, id.Bits)
		fingers[slot] = near
		return &world{Live: []nodeView{{Snap: transport.Snapshot{Addr: "n0", ID: self,
			Layers: []transport.LayerSnapshot{{Layer: 1, Fingers: fingers}}}}}}
	}
	if err := checkFingerDefinition(withFinger(k)); err == nil || !strings.Contains(err.Error(), "less than 2^") { //lint:allow wraperr the failure message is the shrink artifact a human reads; its wording is what this test pins
		t.Errorf("a finger less than 2^%d past its node passed checkFingerDefinition: %v", k, err)
	}
	if err := checkFingerDefinition(withFinger(k - 1)); err != nil {
		t.Errorf("a finger 2^%d past its node tripped checkFingerDefinition: %v", k-1, err)
	}
}
