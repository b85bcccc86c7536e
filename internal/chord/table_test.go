package chord

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/id"
)

// makeMembers returns n members with random distinct IDs.
func makeMembers(rng *rand.Rand, n int) []Member {
	seen := make(map[id.ID]bool, n)
	ms := make([]Member, 0, n)
	for len(ms) < n {
		x := id.Rand(rng)
		if !seen[x] {
			seen[x] = true
			ms = append(ms, Member{ID: x, Host: len(ms)})
		}
	}
	return ms
}

func mustTable(t *testing.T, ms []Member) *Table {
	t.Helper()
	tbl, err := BuildTable(ms, 0)
	if err != nil {
		t.Fatalf("BuildTable: %v", err)
	}
	return tbl
}

func TestBuildTableErrors(t *testing.T) {
	if _, err := BuildTable(nil, 0); err == nil {
		t.Error("empty member set accepted")
	}
	x := id.HashString("dup")
	if _, err := BuildTable([]Member{{ID: x}, {ID: x, Host: 1}}, 0); err == nil {
		t.Error("duplicate identifiers accepted")
	}
}

func TestBuildTableSortsMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ms := makeMembers(rng, 50)
	tbl := mustTable(t, ms)
	for i := 1; i < tbl.Len(); i++ {
		if !tbl.ID(i - 1).Less(tbl.ID(i)) {
			t.Fatal("members not in ascending ID order")
		}
	}
	// Hosts follow their IDs.
	hostByID := map[id.ID]int{}
	for _, m := range ms {
		hostByID[m.ID] = m.Host
	}
	for i := 0; i < tbl.Len(); i++ {
		if tbl.Host(i) != hostByID[tbl.ID(i)] {
			t.Fatal("host mapping lost during sort")
		}
	}
}

func TestSuccessorIndexBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tbl := mustTable(t, makeMembers(rng, 64))
	for trial := 0; trial < 500; trial++ {
		key := id.Rand(rng)
		got := tbl.SuccessorIndex(key)
		// Brute force: owner is the member j with key in (prev(j), j].
		want := -1
		for j := 0; j < tbl.Len(); j++ {
			if id.InOpenClosed(key, tbl.ID(tbl.Prev(j)), tbl.ID(j)) {
				want = j
				break
			}
		}
		if got != want {
			t.Fatalf("SuccessorIndex(%s) = %d, want %d", key.Short(), got, want)
		}
	}
}

func TestSuccessorIndexExactKey(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tbl := mustTable(t, makeMembers(rng, 20))
	for i := 0; i < tbl.Len(); i++ {
		if got := tbl.SuccessorIndex(tbl.ID(i)); got != i {
			t.Fatalf("a member owns its own identifier: got %d want %d", got, i)
		}
	}
}

func TestPredecessorIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tbl := mustTable(t, makeMembers(rng, 30))
	for trial := 0; trial < 200; trial++ {
		key := id.Rand(rng)
		p := tbl.Prev(tbl.SuccessorIndex(key))
		if !id.InOpenClosed(key, tbl.ID(p), tbl.ID(tbl.Next(p))) {
			t.Fatalf("predecessor %d does not precede key %s", p, key.Short())
		}
	}
}

func TestFingerDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tbl := mustTable(t, makeMembers(rng, 40))
	for i := 0; i < tbl.Len(); i += 7 {
		for k := uint(0); k < id.Bits; k += 13 {
			want := tbl.SuccessorIndex(id.AddPow2(tbl.ID(i), k))
			if got := tbl.Finger(i, k); got != want {
				t.Fatalf("finger[%d][%d] = %d, want %d", i, k, got, want)
			}
		}
	}
}

func TestIndexOf(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tbl := mustTable(t, makeMembers(rng, 25))
	for i := 0; i < tbl.Len(); i++ {
		if tbl.IndexOf(tbl.ID(i)) != i {
			t.Fatal("IndexOf failed for a member")
		}
	}
	if tbl.IndexOf(id.HashString("not-a-member")) != -1 {
		t.Error("IndexOf should return -1 for non-members")
	}
}

func TestLookupLandsOnOwner(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tbl := mustTable(t, makeMembers(rng, 128))
	for trial := 0; trial < 1000; trial++ {
		from := rng.Intn(tbl.Len())
		key := id.Rand(rng)
		owner, hops := tbl.Lookup(from, key, nil)
		if owner != tbl.SuccessorIndex(key) {
			t.Fatalf("lookup landed on %d, owner is %d", owner, tbl.SuccessorIndex(key))
		}
		if hops < 0 || hops > id.Bits {
			t.Fatalf("hop count %d out of range", hops)
		}
	}
}

func TestLookupZeroHopsWhenOwner(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tbl := mustTable(t, makeMembers(rng, 32))
	for i := 0; i < tbl.Len(); i++ {
		// A key just below the member's own ID (and above its
		// predecessor's) is owned by member i.
		key := tbl.ID(i)
		owner, hops := tbl.Lookup(i, key, nil)
		if owner != i || hops != 0 {
			t.Fatalf("self-owned lookup: owner %d hops %d", owner, hops)
		}
	}
}

func TestLookupVisitsContiguousPath(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tbl := mustTable(t, makeMembers(rng, 100))
	for trial := 0; trial < 100; trial++ {
		from := rng.Intn(tbl.Len())
		key := id.Rand(rng)
		cur := from
		count := 0
		owner, hops := tbl.Lookup(from, key, func(f, to int) {
			if f != cur {
				t.Fatalf("discontiguous path: hop from %d but current is %d", f, cur)
			}
			cur = to
			count++
		})
		if cur != owner {
			t.Fatalf("path ends at %d, owner %d", cur, owner)
		}
		if count != hops {
			t.Fatalf("visit count %d != hops %d", count, hops)
		}
	}
}

func TestLookupHalvesDistance(t *testing.T) {
	// Scalability property from the paper: the message keeps moving toward
	// the destination, reducing nearly half the distance each time; hops
	// are O(log N).
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{16, 64, 256, 1024} {
		tbl := mustTable(t, makeMembers(rng, n))
		total := 0
		trials := 400
		for trial := 0; trial < trials; trial++ {
			_, hops := tbl.Lookup(rng.Intn(n), id.Rand(rng), nil)
			total += hops
		}
		mean := float64(total) / float64(trials)
		bound := 1.5*math.Log2(float64(n)) + 2
		if mean > bound {
			t.Errorf("n=%d: mean hops %.2f exceeds %.2f", n, mean, bound)
		}
	}
}

func TestSingleMemberRing(t *testing.T) {
	tbl := mustTable(t, []Member{{ID: id.HashString("solo"), Host: 0}})
	owner, hops := tbl.Lookup(0, id.HashString("any key"), nil)
	if owner != 0 || hops != 0 {
		t.Fatalf("single-member lookup: owner %d hops %d", owner, hops)
	}
	if tbl.Next(0) != 0 || tbl.Prev(0) != 0 {
		t.Error("single member is its own neighbor")
	}
}

func TestTwoMemberRing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tbl := mustTable(t, makeMembers(rng, 2))
	for trial := 0; trial < 100; trial++ {
		key := id.Rand(rng)
		from := rng.Intn(2)
		owner, hops := tbl.Lookup(from, key, nil)
		if owner != tbl.SuccessorIndex(key) {
			t.Fatal("wrong owner on 2-ring")
		}
		if hops > 1 {
			t.Fatalf("2-ring lookup took %d hops", hops)
		}
	}
}

func TestWalkToPredecessor(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tbl := mustTable(t, makeMembers(rng, 80))
	for trial := 0; trial < 300; trial++ {
		from := rng.Intn(tbl.Len())
		key := id.Rand(rng)
		p, _ := tbl.WalkToPredecessor(from, key, nil)
		if !id.InOpenClosed(key, tbl.ID(p), tbl.ID(tbl.Next(p))) {
			t.Fatalf("walk ended at %d which does not precede %s", p, key.Short())
		}
	}
}

// TestWalkAroundDeadMembers: with a mask the walk visits live members
// only, ends at the live member preceding the key with that member's live
// successor, counts the dead successors it bridged, and gives up when a
// whole successor list is dead.
func TestWalkAroundDeadMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	tbl := mustTable(t, makeMembers(rng, 80))
	dead := make([]bool, tbl.Len())
	for i := range dead {
		dead[i] = i%3 == 1
	}
	bridged := 0
	for trial := 0; trial < 300; trial++ {
		from := 3 * rng.Intn(tbl.Len()/3)
		key := id.Rand(rng)
		p, s, skips, ok := tbl.Walk(from, key, dead, 4, func(f, to int) {
			if dead[f] || dead[to] {
				t.Fatalf("hop %d -> %d touches a dead member", f, to)
			}
		})
		if !ok {
			t.Fatal("walk failed with at most one dead member in a row and r = 4")
		}
		if dead[p] || dead[s] || !id.InOpenClosed(key, tbl.ID(p), tbl.ID(s)) {
			t.Fatalf("walk ended at (%d, %d), which does not bracket %s among live members", p, s, key.Short())
		}
		for m := tbl.Next(p); m != s; m = tbl.Next(m) {
			if !dead[m] {
				t.Fatalf("live member %d lies between predecessor %d and its live successor %d", m, p, s)
			}
		}
		bridged += skips
	}
	if bridged == 0 {
		t.Error("a third of the members are dead and no successor was bridged")
	}
	// Only member 0 alive in reach: r consecutive successors are dead.
	for i := range dead {
		dead[i] = i != 0
	}
	if _, _, skips, ok := tbl.Walk(0, tbl.ID(40), dead, 4, nil); ok || skips != 4 {
		t.Errorf("walk over a shattered ring: ok=%v skips=%d, want failure after 4 skips", ok, skips)
	}
}

func TestSuccessorList(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tbl := mustTable(t, makeMembers(rng, 10))
	l := tbl.SuccessorList(8, 4)
	want := []int{9, 0, 1, 2}
	if len(l) != 4 {
		t.Fatalf("len = %d", len(l))
	}
	for i := range l {
		if l[i] != want[i] {
			t.Fatalf("SuccessorList = %v, want %v", l, want)
		}
	}
	// r larger than the ring truncates.
	if got := tbl.SuccessorList(0, 100); len(got) != 9 {
		t.Errorf("truncated list len = %d, want 9", len(got))
	}
}

func TestMembersCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	tbl := mustTable(t, makeMembers(rng, 5))
	ms := tbl.Members()
	ms[0].Host = 999
	if tbl.Host(0) == 999 {
		t.Error("Members must return a copy")
	}
}

func TestQuickLookupOwnerInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	tbl := mustTable(t, makeMembers(rng, 200))
	f := func(seed int64, fromRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		key := id.Rand(r)
		from := int(fromRaw) % tbl.Len()
		owner, _ := tbl.Lookup(from, key, nil)
		// The owner invariant: key in (pred(owner), owner].
		return id.InOpenClosed(key, tbl.ID(tbl.Prev(owner)), tbl.ID(owner))
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickLookupFromAnywhereSameOwner(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	tbl := mustTable(t, makeMembers(rng, 150))
	f := func(seed int64, a, b uint16) bool {
		r := rand.New(rand.NewSource(seed))
		key := id.Rand(r)
		o1, _ := tbl.Lookup(int(a)%tbl.Len(), key, nil)
		o2, _ := tbl.Lookup(int(b)%tbl.Len(), key, nil)
		return o1 == o2
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkBuildTable1000(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	ms := makeMembers(rng, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildTable(ms, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(21))
			ms := makeMembers(rng, n)
			tbl, err := BuildTable(ms, 0)
			if err != nil {
				b.Fatal(err)
			}
			keys := make([]id.ID, 1024)
			for i := range keys {
				keys[i] = id.Rand(rng)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tbl.Lookup(i%n, keys[i%len(keys)], nil)
			}
		})
	}
}
