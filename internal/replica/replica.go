// Package replica implements the replicated, durable KV layer of the
// HIERAS node stack: per-key replica sets of configurable factor r
// placed on the owner's global successor list, quorum writes (W) and
// quorum reads (R) with version stamps and read-repair, handoff of
// versioned items on graceful leave, and periodic digest anti-entropy
// rounds that re-converge replicas and re-home data after churn.
//
// The package has two halves. Engine is the node-local store: a
// versioned last-writer-wins map whose merges are idempotent, so the
// TStorePut/TReplicate/THandoff wire operations retry safely. The
// quorum coordination logic (replica-set resolution, ack counting,
// read-repair, anti-entropy planning) lives in the transport client,
// which owns lookups and the successor lists; this package supplies
// the ordering rule (Supersedes) both halves must agree on.
package replica

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/id"
	"repro/internal/wire"
)

// Options configures replication for one node. The zero value means
// "use defaults": factor 3, majority write quorum, single-replica
// read quorum.
type Options struct {
	// Factor is the number of copies kept per key — the owner plus
	// Factor-1 distinct successors (0 = default 3; values < 1 clamp
	// to 1, i.e. no replication).
	Factor int
	// WriteQuorum is the number of replica acks a Put needs before it
	// is acknowledged to the caller (0 = majority of Factor; clamped
	// to [1, Factor]).
	WriteQuorum int
	// ReadQuorum is the number of replica answers a Get waits for
	// before trusting the freshest one (0 = default 1; clamped to
	// [1, Factor]).
	ReadQuorum int
}

// WithDefaults returns o with zero fields resolved and quorums clamped
// into [1, Factor].
func (o Options) WithDefaults() Options {
	if o.Factor == 0 {
		o.Factor = 3
	}
	if o.Factor < 1 {
		o.Factor = 1
	}
	if o.WriteQuorum == 0 {
		o.WriteQuorum = o.Factor/2 + 1
	}
	if o.WriteQuorum < 1 {
		o.WriteQuorum = 1
	}
	if o.WriteQuorum > o.Factor {
		o.WriteQuorum = o.Factor
	}
	if o.ReadQuorum == 0 {
		o.ReadQuorum = 1
	}
	if o.ReadQuorum < 1 {
		o.ReadQuorum = 1
	}
	if o.ReadQuorum > o.Factor {
		o.ReadQuorum = o.Factor
	}
	return o
}

// Supersedes reports whether item a should replace item b in a merge:
// strictly higher version wins; equal versions break the tie on the
// writer string. Two items with the same (Version, Writer) carry the
// same value by construction (writers never reuse a stamp), so "not
// supersedes" means "keeping b loses nothing".
func Supersedes(a, b wire.StoreItem) bool {
	if a.Version != b.Version {
		return a.Version > b.Version
	}
	return a.Writer > b.Writer
}

// Engine is one node's versioned store. All methods are safe for
// concurrent use; Clock is set before the engine is shared. Merges are
// monotone: an item is replaced only by one that Supersedes it, so
// applying any batch twice equals applying it once and the wire
// operations feeding the engine are idempotent.
//
// An engine is read through one key-to-identifier mapping for its whole
// life (the node's): identifiers are memoised beside the items.
type Engine struct {
	mu    sync.Mutex
	items map[string]held
	seq   uint64 // node-local write counter, feeds unique Writer stamps

	// Clock is what item lifecycles are judged against: an item with
	// Expire != 0 is dead once wire.Stamp(Clock) >= Expire. With none
	// nothing ever expires. Every node of a cluster runs on one clock:
	// expiry compares stamps across nodes.
	Clock wire.Clock
}

// held is one stored item, its ItemHash (refreshed with every version
// stored) and, once something asked for it, its key's ring identifier: a
// function of the key alone, so it outlives every version of the item and
// goes only when the key does (Drop, PurgeExpired).
type held struct {
	item   wire.StoreItem
	hash   uint64
	id     [20]byte
	hashed bool
}

// NewEngine returns an empty store.
func NewEngine() *Engine {
	return &Engine{items: make(map[string]held)}
}

// entry is one held key as an anti-entropy round sees it: its ring
// identifier and the lifecycle stamps the round decides on.
type entry struct {
	key       string
	id        id.ID
	expire    uint64
	tombstone bool
}

// snapshot lists every held key in ring-identifier order, taken under one
// lock, filling the identifier memo of any key not yet mapped: the single
// walk of the store an anti-entropy round makes.
func (e *Engine) snapshot(keyID func(string) [20]byte) []entry {
	e.mu.Lock()
	out := make([]entry, 0, len(e.items))
	for k, h := range e.items {
		out = append(out, entry{key: k, id: e.idLocked(keyID, k, h), expire: h.item.Expire, tombstone: h.item.Tombstone})
	}
	e.mu.Unlock()
	slices.SortFunc(out, func(a, b entry) int { return cmp.Or(a.id.Cmp(b.id), strings.Compare(a.key, b.key)) })
	return out
}

// idLocked returns the identifier of held key, whose entry is h, filling
// the memo on first use. Callers hold e.mu; storing under an existing key
// is safe while ranging over the map.
func (e *Engine) idLocked(keyID func(string) [20]byte, key string, h held) [20]byte {
	if !h.hashed {
		h.id, h.hashed = keyID(key), true
		e.items[key] = h
	}
	return h.id
}

// Now is Clock as an expiry stamp (0 with none, so nothing expires).
func (e *Engine) Now() uint64 {
	if e.Clock == nil {
		return 0
	}
	return wire.Stamp(e.Clock)
}

// Expired reports whether item is past its expiry stamp at time now.
func Expired(item wire.StoreItem, now uint64) bool {
	return item.Expire != 0 && now >= item.Expire
}

// Alive reports whether item represents a readable value at time now:
// not a tombstone and not expired.
func Alive(item wire.StoreItem, now uint64) bool {
	return !item.Tombstone && !Expired(item, now)
}

// Apply merges one item, returning true when it advanced the store
// (the key was absent or the item supersedes the held one). An item
// that is already expired at the local clock is rejected outright:
// expiry is judged against the stamp that travels with the item, so a
// replica that already purged the key cannot be re-infected by a
// slower peer — expiry converges instead of resurrecting.
func (e *Engine) Apply(item wire.StoreItem) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if Expired(item, e.Now()) {
		return false
	}
	cur, ok := e.items[item.Key]
	if ok && !Supersedes(item, cur.item) {
		return false
	}
	cur.item, cur.hash = item, ItemHash(item)
	e.items[item.Key] = cur
	return true
}

// PurgeExpired removes every item past its expiry stamp — values and
// tombstones alike — and returns how many were removed. Tombstones
// carry their grace period in the same Expire stamp, so delete markers
// are garbage-collected by the same pass once every replica has had
// time to learn them.
func (e *Engine) PurgeExpired() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.Now()
	purged := 0
	for k, h := range e.items {
		if Expired(h.item, now) {
			delete(e.items, k)
			purged++
		}
	}
	return purged
}

// ApplyBatch merges a batch and returns how many items advanced the
// store. Replaying a delivered batch returns 0.
func (e *Engine) ApplyBatch(items []wire.StoreItem) int {
	applied := 0
	for _, it := range items {
		if e.Apply(it) {
			applied++
		}
	}
	return applied
}

// Get returns the held item for key.
func (e *Engine) Get(key string) (wire.StoreItem, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	h, ok := e.items[key]
	return h.item, ok
}

// Stamp allocates the next version stamp for a locally coordinated
// write of key: one past the held version (or past `seen`, whichever
// is larger — callers pass the version a refusing owner reported), with
// a writer string unique to this (node, write).
func (e *Engine) Stamp(key, self string, seen uint64) (version uint64, writer string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stampLocked(key, self, seen)
}

func (e *Engine) stampLocked(key, self string, seen uint64) (version uint64, writer string) {
	version = seen
	if cur, ok := e.items[key]; ok && cur.item.Version > version {
		version = cur.item.Version
	}
	version++
	e.seq++
	return version, fmt.Sprintf("%s#%d", self, e.seq)
}

// ApplyPast is the owner's install of a write: in one critical section the
// item's version is raised past the held one and the item applied. It
// returns the version held after and the items installed (0 or 1). A
// replay — equal to the held item but for the version, as a writer nonce
// repeats after a restart — installs nothing; an expired item neither.
func (e *Engine) ApplyPast(item wire.StoreItem) (version uint64, applied int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur, ok := e.items[item.Key]
	replay := ok && cur.item.Writer == item.Writer && cur.item.Expire == item.Expire &&
		cur.item.Tombstone == item.Tombstone && bytes.Equal(cur.item.Value, item.Value)
	if replay || Expired(item, e.Now()) {
		return cur.item.Version, 0
	}
	item.Version = max(item.Version, cur.item.Version+1)
	cur.item, cur.hash = item, ItemHash(item)
	e.items[item.Key] = cur
	return item.Version, 1
}

// Restamp is the owner's republish of key: whatever is held at the call
// gets a fresh stamp past its own and the given expiry in one critical
// section, so a concurrent ApplyPast is never overwritten by older data.
func (e *Engine) Restamp(key, self string, expire uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur, ok := e.items[key]; ok {
		cur.item.Version, cur.item.Writer = e.stampLocked(key, self, 0)
		cur.item.Expire = expire
		cur.hash = ItemHash(cur.item)
		e.items[key] = cur
	}
}

// Drop removes key from the store (used when an anti-entropy round
// determines the node is no longer in the key's replica set).
func (e *Engine) Drop(key string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.items, key)
}

// Len returns the number of keys held.
func (e *Engine) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.items)
}

// Keys returns the held keys in sorted order — anti-entropy rounds
// iterate this so their wire traffic is deterministic under the simcheck
// harness.
func (e *Engine) Keys() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	keys := make([]string, 0, len(e.items))
	for k := range e.items {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Items returns a deep copy of the store sorted by key, for snapshots
// and leave handoffs.
func (e *Engine) Items() []wire.StoreItem {
	e.mu.Lock()
	defer e.mu.Unlock()
	items := make([]wire.StoreItem, 0, len(e.items))
	for _, h := range e.items {
		cp := h.item
		cp.Value = append([]byte(nil), cp.Value...)
		items = append(items, cp)
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Key < items[j].Key })
	return items
}

// ReplicaSet returns the first want distinct members of the key's
// replica set given the owner and the owner's successor list: the
// owner first, then successors in list order, deduplicated by
// address. Fewer members are returned when the ring is smaller than
// the factor.
func ReplicaSet(owner string, succs []string, want int) []string {
	if want < 1 {
		want = 1
	}
	set := make([]string, 0, want)
	for i := -1; i < len(succs) && len(set) < want; i++ {
		addr := owner
		if i >= 0 {
			addr = succs[i]
		}
		if addr != "" && !slices.Contains(set, addr) {
			set = append(set, addr)
		}
	}
	return set
}
