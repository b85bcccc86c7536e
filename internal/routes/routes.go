// Package routes implements the gossip-maintained near-full routing
// table behind the single-hop acceleration tier (ROADMAP item 2, after
// Monnerat & Amorim's effective single-hop DHT). Each node keeps one
// membership-event set per ring it knows about; the set is a
// join-semilattice under the merge rule "higher stamp wins, equal stamp
// breaks toward the higher kind", so gossip exchanges converge to the
// same table regardless of delivery order, duplication or interleaving.
//
// A table answers the one question the fast path needs — who owns this
// key in this ring? — from local memory. The answer may be stale; the
// caller's contract is to verify it with a single RPC before use (falling
// back to the classic walk on refusal), so staleness costs one wasted
// hop, never a wrong owner.
package routes

import (
	"bytes"
	"encoding/binary"
	"sort"
	"sync"

	"repro/internal/wire"
)

// entryKey identifies the subject of a membership fact: one peer in one
// ring of one layer.
type entryKey struct {
	layer int
	ring  string
	addr  string
}

// ringKey identifies one ring of one layer.
type ringKey struct {
	layer int
	ring  string
}

// Table is a thread-safe membership-event set. The zero value is not
// ready; use New. Table methods never perform I/O and never call out,
// so a Table can be consulted under any lock discipline (the transport
// node reads it inside RPC handlers, the sim façade from parallel
// BatchLookup workers).
type Table struct {
	mu     sync.RWMutex
	events map[entryKey]wire.RouteEvent
	// members indexes each ring's joined peers in successor-search order.
	// It is derived from events: an event that advances the table drops
	// its ring's entry and the next Owner or Members rebuilds it, so a
	// lookup is a binary search instead of a scan and sort of every event.
	members map[ringKey][]wire.Peer
	// summary is the XOR of eventHash over events, kept current by
	// applyLocked, so two tables compare in one word (see Summary).
	summary uint64
}

// New returns an empty table.
func New() *Table {
	return &Table{events: make(map[entryKey]wire.RouteEvent), members: make(map[ringKey][]wire.Peer)}
}

// beats reports whether event a supersedes event b under the merge
// order: a strictly higher stamp always wins; at an equal stamp the
// higher kind (departure over join) wins, so a concurrent
// leave/eviction is never lost to the join it races with.
func beats(a, b wire.RouteEvent) bool {
	if a.Stamp != b.Stamp {
		return a.Stamp > b.Stamp
	}
	return a.Kind > b.Kind
}

// Apply merges one event and reports whether it advanced the table.
// Replaying a merged event — or delivering a superseded one — is a
// no-op, which is what makes TRouteGossip idempotent.
func (t *Table) Apply(ev wire.RouteEvent) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.applyLocked(ev)
}

func (t *Table) applyLocked(ev wire.RouteEvent) bool {
	k := entryKey{layer: ev.Layer, ring: ev.Ring, addr: ev.Peer.Addr}
	cur, ok := t.events[k]
	if ok && !beats(ev, cur) {
		return false
	}
	if ok {
		t.summary ^= eventHash(&cur)
	}
	t.summary ^= eventHash(&ev)
	t.events[k] = ev
	delete(t.members, ringKey{ev.Layer, ev.Ring})
	return true
}

// Summary is an order-independent 64-bit digest of the event set: tables
// holding the same events have the same summary whatever order they
// learned them in, and tables holding different events differ with
// probability 1 - 2^-64. Gossip sends it ahead of the table, so a peer
// that is already converged answers "same" instead of receiving the set.
func (t *Table) Summary() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.summary
}

// eventHash hashes every field of one event — FNV-1a over a
// length-prefixed encoding, so ("ab", "c") and ("a", "bc") hash apart —
// and then a bijective finalizer (splitmix64's), because XOR-combined raw
// FNV values would let the differences of several events cancel far more
// often than 2^-64. The buffer stays on the stack for any address a
// listener can have.
func eventHash(ev *wire.RouteEvent) uint64 {
	var buf [128]byte
	b := binary.AppendUvarint(buf[:0], uint64(ev.Layer))
	b = append(binary.AppendUvarint(b, uint64(len(ev.Ring))), ev.Ring...)
	b = append(binary.AppendUvarint(b, uint64(len(ev.Peer.Addr))), ev.Peer.Addr...)
	b = append(append(b, ev.Peer.ID[:]...), ev.Kind)
	b = binary.BigEndian.AppendUint64(b, ev.Stamp)
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// ApplyAll merges a batch and returns how many events advanced the
// table.
func (t *Table) ApplyAll(evs []wire.RouteEvent) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	applied := 0
	for _, ev := range evs {
		if t.applyLocked(ev) {
			applied++
		}
	}
	return applied
}

// Events returns the full event set sorted by (layer, ring, addr) — a
// deterministic order, so two converged tables render identical slices
// (the property the simcheck fixpoint detector relies on).
func (t *Table) Events() []wire.RouteEvent {
	t.mu.RLock()
	out := make([]wire.RouteEvent, 0, len(t.events))
	for _, ev := range t.events {
		out = append(out, ev)
	}
	t.mu.RUnlock()
	sortEvents(out)
	return out
}

func sortEvents(evs []wire.RouteEvent) {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Layer != evs[j].Layer {
			return evs[i].Layer < evs[j].Layer
		}
		if evs[i].Ring != evs[j].Ring {
			return evs[i].Ring < evs[j].Ring
		}
		return evs[i].Peer.Addr < evs[j].Peer.Addr
	})
}

// Diff returns the events this table holds that the given set does not
// supersede: entries absent from evs, or beaten by the local version.
// It is the pull half of a push-pull gossip exchange — computable from
// the pushed set alone, so a server can answer without calling anyone.
// The result is sorted like Events.
func (t *Table) Diff(evs []wire.RouteEvent) []wire.RouteEvent {
	theirs := make(map[entryKey]wire.RouteEvent, len(evs))
	for _, ev := range evs {
		theirs[entryKey{layer: ev.Layer, ring: ev.Ring, addr: ev.Peer.Addr}] = ev
	}
	t.mu.RLock()
	var out []wire.RouteEvent
	for k, mine := range t.events {
		if their, ok := theirs[k]; !ok || beats(mine, their) {
			out = append(out, mine)
		}
	}
	t.mu.RUnlock()
	sortEvents(out)
	return out
}

// Latest returns the current event for one subject.
func (t *Table) Latest(layer int, ring, addr string) (wire.RouteEvent, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ev, ok := t.events[entryKey{layer: layer, ring: ring, addr: addr}]
	return ev, ok
}

// Members returns the peers whose latest event in (layer, ring) is a
// join — the table's view of the ring's live membership — sorted by ID
// (ties by address) so the slice doubles as the successor-search ring.
// The slice is the caller's own.
func (t *Table) Members(layer int, ring string) []wire.Peer {
	return append([]wire.Peer(nil), t.ringMembers(layer, ring)...)
}

// ringMembers returns the ring's indexed members. A published slice is
// never written again — a change to the ring drops it from the index
// instead — so callers read it without the lock, and must not modify it.
func (t *Table) ringMembers(layer int, ring string) []wire.Peer {
	k := ringKey{layer, ring}
	t.mu.RLock()
	members, ok := t.members[k]
	t.mu.RUnlock()
	if ok {
		return members
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if members, ok = t.members[k]; ok {
		return members // another caller rebuilt it meanwhile
	}
	for ek, ev := range t.events {
		if ek.layer == layer && ek.ring == ring && ev.Kind == wire.RouteJoin {
			members = append(members, ev.Peer)
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if c := bytes.Compare(members[i].ID[:], members[j].ID[:]); c != 0 {
			return c < 0
		}
		return members[i].Addr < members[j].Addr
	})
	t.members[k] = members
	return members
}

// Owner resolves a key to its owner in (layer, ring) per the table's
// current membership view: the first member whose ID is >= key in ring
// order, wrapping to the smallest ID. ok is false when the table knows
// no live member of the ring. The answer is exactly as fresh as the
// table — callers must treat it as a hint and verify before trusting.
func (t *Table) Owner(layer int, ring string, key [20]byte) (wire.Peer, bool) {
	members := t.ringMembers(layer, ring)
	if len(members) == 0 {
		return wire.Peer{}, false
	}
	i := sort.Search(len(members), func(i int) bool {
		return bytes.Compare(members[i].ID[:], key[:]) >= 0
	})
	return members[i%len(members)], true
}

// NextStamp returns a stamp that supersedes whatever the table holds
// for the subject while tracking the caller's logical clock: the
// maximum of clock and latest+1. Announcing with NextStamp guarantees
// the new fact wins the merge everywhere — in particular it lets a
// rejoining node outrank its own eviction tombstone.
func (t *Table) NextStamp(layer int, ring, addr string, clock uint64) uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	next := clock
	if ev, ok := t.events[entryKey{layer: layer, ring: ring, addr: addr}]; ok && ev.Stamp+1 > next {
		next = ev.Stamp + 1
	}
	return next
}
