package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/topology/transitstub"
)

func testOverlay(t testing.TB, hosts int, seed int64) *core.Overlay {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m, err := transitstub.Generate(transitstub.DefaultConfig(hosts), rng)
	if err != nil {
		t.Fatal(err)
	}
	net, err := topology.Attach(m, m.G, topology.AttachOptions{
		Hosts: hosts, Routers: m.StubRouters, Spread: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	o, err := core.Build(net, core.Config{Depth: 2, Landmarks: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestPutGetRoundTrip(t *testing.T) {
	o := testOverlay(t, 60, 1)
	s, err := New(o, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Put(3, "alpha", []byte("file-location-1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Nodes) != 3 {
		t.Errorf("stored on %d nodes, want 3 (owner + 2 replicas)", len(rep.Nodes))
	}
	v, getRep, err := s.Get(40, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v, []byte("file-location-1")) {
		t.Errorf("value = %q", v)
	}
	if getRep.Fallbacks != 0 {
		t.Errorf("healthy read took %d fallbacks", getRep.Fallbacks)
	}
	if getRep.Latency < 0 || getRep.Hops < 0 {
		t.Error("negative cost")
	}
}

func TestGetMissing(t *testing.T) {
	o := testOverlay(t, 40, 2)
	s, _ := New(o, 1)
	if _, _, err := s.Get(0, "nope"); err == nil {
		t.Error("missing key should error")
	}
}

func TestValueIsolation(t *testing.T) {
	o := testOverlay(t, 40, 3)
	s, _ := New(o, 1)
	val := []byte("mutate-me")
	_, _ = s.Put(0, "k", val)
	val[0] = 'X'
	got, _, err := s.Get(1, "k")
	if err != nil {
		t.Fatal(err)
	}
	if got[0] == 'X' {
		t.Error("stored value aliased the caller's buffer")
	}
	got[1] = 'Y'
	got2, _, _ := s.Get(1, "k")
	if got2[1] == 'Y' {
		t.Error("returned value aliased the stored buffer")
	}
}

func TestReplicaFallbackAfterFailure(t *testing.T) {
	o := testOverlay(t, 60, 4)
	s, _ := New(o, 3)
	rep, err := s.Put(0, "resilient", []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	owner := rep.Nodes[0]
	s.MarkDown(owner)
	v, getRep, err := s.Get(10, "resilient")
	if err != nil {
		t.Fatalf("read after owner failure: %v", err)
	}
	if string(v) != "v" {
		t.Errorf("value %q", v)
	}
	if getRep.Fallbacks == 0 {
		t.Error("read should have fallen back to a replica")
	}
	// All replicas down -> not found.
	for _, n := range rep.Nodes {
		s.MarkDown(n)
	}
	if _, _, downErr := s.Get(10, "resilient"); downErr == nil {
		t.Error("read with all replicas down should fail")
	}
	// Revive the owner alone: one of four members is short of the write
	// quorum of three, so the re-put fails.
	s.MarkUp(owner)
	if _, putErr := s.Put(0, "resilient", []byte("v2")); putErr == nil {
		t.Error("a put reaching 1 of 4 members was acknowledged")
	}
	// With the rest back a write lands again.
	for _, n := range rep.Nodes[1:] {
		s.MarkUp(n)
	}
	if _, putErr := s.Put(0, "resilient", []byte("v3")); putErr != nil {
		t.Fatal(putErr)
	}
	v, _, err = s.Get(10, "resilient")
	if err != nil || string(v) != "v3" {
		t.Errorf("after revive: %q %v", v, err)
	}
}

// TestQuorumAndRepairAccounting: puts report acks and version stamps and
// fail short of the write quorum; gets repair replicas that lost their
// copy.
func TestQuorumAndRepairAccounting(t *testing.T) {
	o := testOverlay(t, 60, 9)
	s, _ := New(o, 2) // factor 3, majority write quorum 2
	rep, err := s.Put(0, "q", []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Acks != 3 {
		t.Errorf("healthy put: acks=%d, want 3", rep.Acks)
	}
	if rep.Version != 1 {
		t.Errorf("first put stamped version %d, want 1", rep.Version)
	}
	rep2, err := s.Put(1, "q", []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Version <= rep.Version {
		t.Errorf("re-put version %d did not advance past %d", rep2.Version, rep.Version)
	}

	owner, replica1 := rep.Nodes[0], rep.Nodes[1]
	// Crash a replica (losing its copy), revive it empty, then crash the
	// owner: the read must fall back past the empty replica, return the
	// surviving copy, and re-install it on the revived node.
	s.MarkDown(replica1)
	s.MarkUp(replica1)
	s.MarkDown(owner)
	v, getRep, err := s.Get(10, "q")
	if err != nil {
		t.Fatalf("read after failures: %v", err)
	}
	if string(v) != "v2" {
		t.Errorf("value %q, want freshest write", v)
	}
	if getRep.Version != rep2.Version {
		t.Errorf("get returned version %d, want %d", getRep.Version, rep2.Version)
	}
	if getRep.Repairs != 1 {
		t.Errorf("read repaired %d replicas, want 1 (the revived empty one)", getRep.Repairs)
	}
	if s.KeysAt(replica1) != 1 {
		t.Errorf("revived replica holds %d keys after read-repair, want 1", s.KeysAt(replica1))
	}

	// With only one live member the put lands there but misses the write
	// quorum of two, and fails.
	for _, n := range rep.Nodes[1:] {
		s.MarkDown(n)
	}
	s.MarkUp(owner)
	solo, err := s.Put(0, "q", []byte("v3"))
	if err == nil {
		t.Error("a put acknowledged by 1 of 3 members succeeded")
	}
	if solo.Acks != 1 {
		t.Errorf("degraded put: acks=%d, want 1", solo.Acks)
	}
}

func TestDelete(t *testing.T) {
	o := testOverlay(t, 40, 5)
	s, _ := New(o, 2)
	_, _ = s.Put(0, "gone", []byte("x"))
	if _, err := s.Delete(5, "gone"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(0, "gone"); err == nil {
		t.Error("deleted key still readable")
	}
	// A delete is a tombstone on each of the three members.
	if s.TotalKeys() != 3 {
		t.Errorf("TotalKeys = %d after delete, want 3 tombstones", s.TotalKeys())
	}
}

func TestLoadDistribution(t *testing.T) {
	o := testOverlay(t, 80, 6)
	s, _ := New(o, 0)
	for i := 0; i < 400; i++ {
		if _, err := s.Put(i%o.N(), fmt.Sprintf("key-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if s.TotalKeys() != 400 {
		t.Fatalf("TotalKeys = %d", s.TotalKeys())
	}
	// Consistent hashing should spread keys: no node hoards more than an
	// outsized share.
	max := 0
	for i := 0; i < o.N(); i++ {
		if k := s.KeysAt(i); k > max {
			max = k
		}
	}
	if max > 80 {
		t.Errorf("hottest node stores %d of 400 keys", max)
	}
}

func TestInvalidArguments(t *testing.T) {
	o := testOverlay(t, 30, 7)
	if _, err := New(o, -1); err == nil {
		t.Error("negative replicas accepted")
	}
	s, _ := New(o, 1)
	if _, err := s.Put(-1, "k", nil); err == nil {
		t.Error("negative origin accepted in Put")
	}
	if _, _, err := s.Get(999, "k"); err == nil {
		t.Error("out-of-range origin accepted in Get")
	}
	if _, err := s.Delete(999, "k"); err == nil {
		t.Error("out-of-range origin accepted in Delete")
	}
	// MarkDown/MarkUp ignore out-of-range nodes.
	s.MarkDown(-5)
	s.MarkUp(1 << 20)
}

func TestConcurrentAccess(t *testing.T) {
	o := testOverlay(t, 50, 8)
	s, _ := New(o, 2)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				if _, err := s.Put(w, key, []byte(key)); err != nil {
					done <- err
					return
				}
				if v, _, err := s.Get((w+i)%o.N(), key); err != nil || string(v) != key {
					done <- fmt.Errorf("get %q: %q %v", key, v, err)
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestWriteWithOwnerDown: with the owner down, the origin stamps a write
// itself, past its own copy, which it does not hold. The members holding
// the earlier writes keep them over that stamp and report them, and the
// write is restamped past them, so the acknowledged write is the one read
// back.
func TestWriteWithOwnerDown(t *testing.T) {
	o := testOverlay(t, 60, 10)
	s, _ := New(o, 2)
	var rep CostReport
	for _, v := range []string{"v1", "v2", "v3"} {
		var err error
		if rep, err = s.Put(0, "k", []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	var others []int
	for n := 1; n < o.N() && len(others) < 2; n++ {
		if !slices.Contains(rep.Nodes, n) {
			others = append(others, n)
		}
	}
	s.MarkDown(rep.Nodes[0])
	put, err := s.Put(others[0], "k", []byte("v4"))
	if err != nil {
		t.Fatalf("put with the owner down: %v", err)
	}
	if put.Version <= rep.Version || put.Acks != 2 {
		t.Errorf("the put installed version %d on %d members, want past %d on 2", put.Version, put.Acks, rep.Version)
	}
	if v, _, err := s.Get(others[1], "k"); err != nil || string(v) != "v4" {
		t.Errorf("acknowledged write not visible: read %q, %v", v, err)
	}
}
