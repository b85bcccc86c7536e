// Package chord implements the Chord distributed hash table (Stoica et
// al.), which HIERAS uses as its underlying routing algorithm in every
// layer. Table is an oracle-built routing structure over a known member
// set, used for large-scale trace-driven experiments (the paper simulates
// up to 10,000 nodes and 100,000 requests); finger tables are exact. The
// protocol itself — join, stabilization, fix-fingers, failure handling —
// is package transport's live node.
//
// Identifiers live in the 160-bit space of package id. A Table may cover
// any subset of the system's peers: HIERAS builds one Table per P2P ring.
package chord

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/id"
)

// Member is one peer as seen by a ring's routing table.
type Member struct {
	ID   id.ID
	Host int // index of the peer's host in the topology network
}

// Table is an exact Chord routing structure over a fixed member set.
// Member indexes (0..Len-1) follow ascending identifier order; the ring
// successor of member i is member (i+1) mod Len.
//
// Table is immutable after construction and safe for concurrent use.
type Table struct {
	ids     []id.ID
	hosts   []int32
	fingers [][]int32 // fingers[i][k] = member index of successor(ids[i] + 2^k)
}

// BuildTable constructs the exact finger tables for the given members.
// Members may be passed in any order; they are sorted by identifier.
// Duplicate identifiers are rejected. workers <= 0 uses all CPUs.
func BuildTable(members []Member, workers int) (*Table, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("chord: empty member set")
	}
	ms := make([]Member, len(members))
	copy(ms, members)
	sort.Slice(ms, func(a, b int) bool { return ms[a].ID.Less(ms[b].ID) })
	t := &Table{
		ids:   make([]id.ID, len(ms)),
		hosts: make([]int32, len(ms)),
	}
	for i, m := range ms {
		if i > 0 && m.ID == ms[i-1].ID {
			return nil, fmt.Errorf("chord: duplicate identifier %s", m.ID.Short())
		}
		t.ids[i] = m.ID
		t.hosts[i] = int32(m.Host)
	}
	n := len(ms)
	t.fingers = make([][]int32, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				f := make([]int32, id.Bits)
				for k := uint(0); k < id.Bits; k++ {
					f[k] = int32(t.SuccessorIndex(id.AddPow2(t.ids[i], k)))
				}
				t.fingers[i] = f
			}
		}(lo, hi)
	}
	wg.Wait()
	return t, nil
}

// Len returns the number of members.
func (t *Table) Len() int { return len(t.ids) }

// ID returns member i's identifier.
func (t *Table) ID(i int) id.ID { return t.ids[i] }

// Host returns member i's host index.
func (t *Table) Host(i int) int { return int(t.hosts[i]) }

// Next returns the ring successor of member i.
func (t *Table) Next(i int) int { return (i + 1) % len(t.ids) }

// Prev returns the ring predecessor of member i.
func (t *Table) Prev(i int) int { return (i - 1 + len(t.ids)) % len(t.ids) }

// Finger returns the k'th finger of member i: the member whose identifier
// is the first to succeed ids[i] + 2^k.
func (t *Table) Finger(i int, k uint) int { return int(t.fingers[i][k]) }

// IndexOf returns the member index holding exactly this identifier, or -1.
func (t *Table) IndexOf(x id.ID) int {
	n := len(t.ids)
	i := sort.Search(n, func(j int) bool { return !t.ids[j].Less(x) })
	if i < n && t.ids[i] == x {
		return i
	}
	return -1
}

// SuccessorIndex returns the member index of successor(key): the first
// member whose identifier is >= key, wrapping to member 0 past the top of
// the identifier space. This member is the owner of key.
func (t *Table) SuccessorIndex(key id.ID) int {
	n := len(t.ids)
	i := sort.Search(n, func(j int) bool { return !t.ids[j].Less(key) })
	if i == n {
		return 0
	}
	return i
}

// closestPreceding is Chord's closest_preceding_finger over the live
// members only: it returns the member among i's fingers whose identifier
// most immediately precedes key, or i itself when no finger falls inside
// (ids[i], key). A finger pointing at a dead peer is skipped (a timeout
// in a real deployment) and the next lower one tried. A nil mask means
// nobody is dead.
func (t *Table) closestPreceding(i int, key id.ID, dead []bool) int {
	for k := id.Bits - 1; k >= 0; k-- {
		f := int(t.fingers[i][k])
		if f != i && (dead == nil || !dead[f]) && id.Between(t.ids[f], t.ids[i], key) {
			return f
		}
	}
	return i
}

// Walk is the one Chord ring walk: it routes from member `from` toward
// key using fingers and stops at the live member that immediately
// precedes key in this ring (the node "numerically closest to the
// requested key than any other peers in this ring" of paper §3.2, one
// position short of the ring owner). visit, if non-nil, is called once
// per hop.
//
// dead, when non-nil, marks failed members by member index, before any
// repair has run: a member's successor is then the first live entry of
// its r-long successor list, and fingers to dead members are skipped.
// With a nil mask the successor of u is Next(u) and r is unused.
//
// It returns the predecessor reached, that member's live successor, and
// how many dead successors were bridged on the way. ok is false when the
// walk cannot go on from pred — r consecutive successors are dead, the
// situation real Chord cannot survive either, or the step bound ran out —
// and succ is then meaningless.
func (t *Table) Walk(from int, key id.ID, dead []bool, r int, visit func(from, to int)) (pred, succ, skips int, ok bool) {
	n := len(t.ids)
	if r > n-1 {
		r = n - 1
	}
	u := from
	for step := 0; step < 4*id.Bits; step++ {
		s := t.Next(u)
		if dead != nil {
			d := 1
			for ; d <= r && dead[(u+d)%n]; d++ {
				skips++
			}
			if d > r {
				return u, u, skips, false
			}
			s = (u + d) % n
		}
		if id.InOpenClosed(key, t.ids[u], t.ids[s]) {
			return u, s, skips, true
		}
		v := t.closestPreceding(u, key, dead)
		if v == u {
			v = s
		}
		if visit != nil {
			visit(u, v)
		}
		u = v
	}
	return u, u, skips, false
}

// WalkToPredecessor is Walk on a healthy ring: it returns the member
// immediately preceding key and the hop count.
func (t *Table) WalkToPredecessor(from int, key id.ID, visit func(from, to int)) (int, int) {
	hops := 0
	p, _, _, _ := t.Walk(from, key, nil, 0, func(f, to int) {
		hops++
		if visit != nil {
			visit(f, to)
		}
	})
	return p, hops
}

// Lookup performs a full Chord lookup from member `from`: it routes to
// predecessor(key) and takes the final hop to successor(key), the key's
// owner. If `from` already owns the key no hops are taken (the
// destination check of paper §3.2). It returns the owner and hop count.
func (t *Table) Lookup(from int, key id.ID, visit func(from, to int)) (int, int) {
	owner := t.SuccessorIndex(key)
	if owner == from {
		return from, 0
	}
	p, hops := t.WalkToPredecessor(from, key, visit)
	if visit != nil {
		visit(p, owner)
	}
	return owner, hops + 1
}

// Members returns a copy of the member list in ring order.
func (t *Table) Members() []Member {
	out := make([]Member, len(t.ids))
	for i := range t.ids {
		out[i] = Member{ID: t.ids[i], Host: int(t.hosts[i])}
	}
	return out
}

// SuccessorList returns the r members following member i on the ring
// (fewer if the ring is smaller), as used for Chord fault tolerance.
func (t *Table) SuccessorList(i, r int) []int {
	n := len(t.ids)
	if r > n-1 {
		r = n - 1
	}
	out := make([]int, 0, r)
	for s := 1; s <= r; s++ {
		out = append(out, (i+s)%n)
	}
	return out
}
