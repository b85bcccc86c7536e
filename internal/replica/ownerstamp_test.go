package replica

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestOwnerStampApplyPast pins the owner's install of a write: a proposal
// at or below the held version is raised one past it, a higher one is
// kept, a replay installs nothing and answers the held version, a writer
// nonce repeated with other contents (a writer restarted under its
// address) is a new write, and an expired write is refused.
func TestOwnerStampApplyPast(t *testing.T) {
	e := NewEngine()
	for _, c := range []struct {
		it      wire.StoreItem
		version uint64
		applied int
	}{
		{item("k", "a", 1, "c#1"), 1, 1},
		{item("k", "a", 1, "c#1"), 1, 0}, // a replay of the install
		{item("k", "b", 1, "d#1"), 2, 1}, // a stale proposal, raised
		{item("k", "z", 1, "d#1"), 3, 1}, // d#1 again with other contents
		{item("k", "c", 9, "e#1"), 9, 1}, // a proposal past the held version
	} {
		if v, n := e.ApplyPast(c.it); v != c.version || n != c.applied {
			t.Errorf("ApplyPast(%q by %s at %d) = %d, %d; want %d, %d", c.it.Value, c.it.Writer, c.it.Version, v, n, c.version, c.applied)
		}
	}
	if it, _ := e.Get("k"); string(it.Value) != "c" || it.Version != 9 || it.Writer != "e#1" {
		t.Errorf("held %+v, want c at 9 by e#1", it)
	}
	clock := new(wire.ManualClock)
	clock.Advance(time.Second)
	e.Clock = clock
	dead := item("k", "d", 1, "f#1")
	dead.Expire = 1
	if v, n := e.ApplyPast(dead); v != 9 || n != 0 {
		t.Errorf("an expired write = %d, %d; want the held 9 and nothing installed", v, n)
	}
}

// TestOwnerStampStaleCoordinatorWritesPast: the coordinator's own copy is
// far behind the owner's, so the stamp it proposes is stale. The owner
// raises it past what it holds, every member installs the owner's stamp,
// and the write is one store_put per member and no read.
func TestOwnerStampStaleCoordinatorWritesPast(t *testing.T) {
	fc := newFakeCluster("n0", "n1", "n2")
	fc.engines["n0"].Apply(item("doc", "newer", 41, "w#9"))
	fc.engines["n2"].Apply(item("doc", "stale", 3, "w#1"))
	co := fc.coordinator("n2", Options{Factor: 3, WriteQuorum: 2})
	if err := co.Put(context.Background(), "doc", []byte("mine")); err != nil {
		t.Fatal(err)
	}
	want, _ := fc.engines["n0"].Get("doc")
	if want.Version != 42 || string(want.Value) != "mine" {
		t.Fatalf("the owner holds %q at %d, want mine at 42", want.Value, want.Version)
	}
	for _, m := range fc.set {
		if it, _ := fc.engines[m].Get("doc"); !reflect.DeepEqual(it, want) {
			t.Errorf("%s holds %+v, the owner %+v", m, it, want)
		}
	}
	if wantCalls := []string{"n0:store_put", "n1:store_put", "n2:store_put"}; !reflect.DeepEqual(fc.calls, wantCalls) {
		t.Errorf("calls = %v, want %v", fc.calls, wantCalls)
	}
}

// TestOwnerStampRefusedRestamps: set[0] does not own the key — the ring
// moved under the resolver — so it installs nothing and reports the
// version it holds. The coordinator stamps past that version and installs
// on every member, set[0] included.
func TestOwnerStampRefusedRestamps(t *testing.T) {
	fc := newFakeCluster("n0", "n1", "n2")
	fc.owner = "" // nobody vouches
	fc.engines["n0"].Apply(item("doc", "old", 7, "w#1"))
	co := fc.coordinator("n1", Options{Factor: 3, WriteQuorum: 2})
	if err := co.Put(context.Background(), "doc", []byte("new")); err != nil {
		t.Fatal(err)
	}
	want, _ := fc.engines["n0"].Get("doc")
	if want.Version != 8 || string(want.Value) != "new" {
		t.Fatalf("n0 holds %q at %d, want new at 8: one past what it reported", want.Value, want.Version)
	}
	for _, m := range fc.set {
		if it, _ := fc.engines[m].Get("doc"); !reflect.DeepEqual(it, want) {
			t.Errorf("%s holds %+v, n0 %+v", m, it, want)
		}
	}
	if wantCalls := []string{"n0:store_put", "n0:store_put", "n1:store_put", "n2:store_put"}; !reflect.DeepEqual(fc.calls, wantCalls) {
		t.Errorf("calls = %v, want %v (the refused put, then every member)", fc.calls, wantCalls)
	}
}

// TestRepublishNeverLosesAConcurrentWrite races the owner's republish of
// a lease against a write installed at the owner whose writer string
// sorts below the owner's own. A republish that read, stamped and applied
// in separate steps could hand the write's version to the old value and
// win the tie-break with it. Whichever goes first, the owner must end up
// holding the write's value.
func TestRepublishNeverLosesAConcurrentWrite(t *testing.T) {
	const races = 1000
	ctx := context.Background()
	clock := new(wire.ManualClock)
	clock.Advance(time.Hour)
	for i := 0; i < races; i++ {
		fc := newFakeCluster("n0")
		e := fc.engines["n0"]
		e.Clock = clock
		co := fc.coordinator("n0", Options{Factor: 1})
		co.TTL = 10 * time.Second
		co.Metrics = NewMetrics(nil) // built here, not inside the race
		now := e.Now()
		lease := item("lease", "old", 1, "n0#0")
		lease.Expire = now + uint64(time.Second) // inside the republish window
		e.Apply(lease)
		write := item("lease", "new", 1, "m#1")
		write.Expire = lease.Expire // in the window too: the round republishes whichever it finds
		// Both sides spin until released, so neither pays a wake-up the
		// other does not, and the install is swept across the round.
		var ready, wg sync.WaitGroup
		var release atomic.Bool
		spin := func() {
			ready.Done()
			for !release.Load() {
				runtime.Gosched()
			}
		}
		ready.Add(2)
		wg.Add(2)
		go func() {
			defer wg.Done()
			spin()
			if _, _, _, err := co.AntiEntropyOnce(ctx); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			spin()
			for j := 0; j < i%200; j++ {
				e.Len()
			}
			e.ApplyPast(write)
		}()
		ready.Wait()
		release.Store(true)
		wg.Wait()
		if it, _ := e.Get("lease"); string(it.Value) != "new" {
			t.Fatalf("race %d: the owner holds %q at %d by %s, want the write's value", i, it.Value, it.Version, it.Writer)
		}
	}
}
