package replica

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"repro/internal/id"
	"repro/internal/wire"
)

// DigestBuckets is the fixed bucket count of a range digest. It is a
// protocol constant: both sides of a TDigest exchange fold their items
// into the same bucket layout, so changing it is a wire-protocol
// change. 32 buckets keep a digest frame at 256 bytes while still
// isolating divergence to ~1/32 of a range.
const DigestBuckets = 32

// BucketOf maps a key's ring identifier to its digest bucket.
func BucketOf(keyID [20]byte) int {
	return int(binary.BigEndian.Uint32(keyID[:4]) % DigestBuckets)
}

// ItemHash folds one item's identity into a 64-bit value (FNV-1a over
// key, version stamp, writer nonce, expiry and the tombstone flag).
// The value bytes are deliberately excluded: two replicas holding the
// same (Version, Writer) stamp hold the same value by construction, so
// hashing the stamp compares contents without touching payloads.
func ItemHash(it wire.StoreItem) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(it.Key); i++ {
		h = (h ^ uint64(it.Key[i])) * prime64
	}
	var stamp [17]byte
	binary.BigEndian.PutUint64(stamp[0:8], it.Version)
	binary.BigEndian.PutUint64(stamp[8:16], it.Expire)
	if it.Tombstone {
		stamp[16] = 1
	}
	for _, b := range stamp {
		h = (h ^ uint64(b)) * prime64
	}
	for i := 0; i < len(it.Writer); i++ {
		h = (h ^ uint64(it.Writer[i])) * prime64
	}
	return h
}

// RangeDigest folds the held items whose key IDs fall in the arc
// (lo, hi] (lo == hi covers the whole ring) into DigestBuckets
// XOR-combined hashes. XOR makes the fold order-independent, so two
// engines holding the same items produce identical digests regardless
// of insertion history. Items past their expiry stamp are treated as
// absent — both sides of an exchange judge expiry against the same
// travelling stamp, so a purged replica and a lagging one agree. Each
// item's hash is the one Apply memoised beside it.
func (e *Engine) RangeDigest(keyID func(string) [20]byte, lo, hi [20]byte) []uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.Now()
	digest := make([]uint64, DigestBuckets)
	for k, h := range e.items {
		if Expired(h.item, now) {
			continue
		}
		kid := e.idLocked(keyID, k, h)
		if !id.InOpenClosed(id.ID(kid), id.ID(lo), id.ID(hi)) {
			continue
		}
		digest[BucketOf(kid)] ^= h.hash
	}
	return digest
}

// RangeItems returns deep copies of the held items in the arc (lo, hi]
// whose digest bucket is listed in buckets, sorted by key. Expired
// items are omitted, mirroring RangeDigest.
func (e *Engine) RangeItems(keyID func(string) [20]byte, lo, hi [20]byte, buckets []uint32) []wire.StoreItem {
	var want [DigestBuckets]bool
	for _, b := range buckets {
		if b < DigestBuckets {
			want[b] = true
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.Now()
	var out []wire.StoreItem
	for k, h := range e.items {
		if Expired(h.item, now) {
			continue
		}
		kid := e.idLocked(keyID, k, h)
		if !id.InOpenClosed(id.ID(kid), id.ID(lo), id.ID(hi)) || !want[BucketOf(kid)] {
			continue
		}
		cp := h.item
		cp.Value = append([]byte(nil), cp.Value...)
		out = append(out, cp)
	}
	slices.SortFunc(out, func(a, b wire.StoreItem) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// cover accumulates the minimal (lo, hi] arc containing every ID added,
// in ring order: the complement of the largest circular gap between
// consecutive IDs. A digest over this arc sees exactly the keys two
// replica-set members share (membership arcs are contiguous on the ring),
// so converged peers produce identical digests and the exchange settles
// at zero transfer.
type cover struct {
	n                   int
	first, prev         id.ID
	gap, gapLo, gapNext id.ID // largest gap between consecutive IDs so far
}

func (c *cover) add(x id.ID) {
	if c.n == 0 {
		c.first = x
	} else if g := id.Sub(x, c.prev); c.n == 1 || g.Cmp(c.gap) > 0 {
		c.gap, c.gapLo, c.gapNext = g, c.prev, x
	}
	c.prev = x
	c.n++
}

// arc returns the covering arc. Ties go to the wrap gap (last back to
// first), then to the earliest gap.
func (c *cover) arc() (lo, hi id.ID) {
	one := id.ID{19: 1}
	if c.n < 2 || c.gap.Cmp(id.Sub(c.first, c.prev)) <= 0 {
		return id.Sub(c.first, one), c.prev
	}
	return id.Sub(c.gapNext, one), c.gapLo
}

// itemWireBytes approximates one item's on-the-wire cost: key, value
// and writer bytes plus the fixed stamp fields. It is the unit both
// the anti-entropy accounting and the full-transfer figure (SweepBytes)
// use, so the two are directly comparable.
func itemWireBytes(it wire.StoreItem) uint64 {
	return uint64(len(it.Key) + len(it.Value) + len(it.Writer) + 12)
}

// digestWireBytes is one TDigest exchange's cost: the two arc bounds
// plus DigestBuckets 8-byte digests.
const digestWireBytes = 40 + 8*DigestBuckets

// AntiEntropyOnce runs one digest-based anti-entropy round, the node's
// one replica repair path:
//
//  1. Purge locally expired items (values and tombstones).
//  2. Republish: re-stamp owner-held live items inside the last half
//     of their TTL, pushing their expiry out before they die.
//  3. Re-home foreign keys (self no longer in the replica set) by
//     pushing them to the current members and dropping the local copy
//     once every member confirmed.
//  4. For every replica-set peer sharing keys with this node, exchange
//     a DigestBuckets-bucket digest over the covering arc of the
//     shared keys, pull only the divergent buckets, merge them under
//     the LWW order, and push back exactly the items the peer proved
//     to lack or hold stale. A peer whose fold of the shared arc was
//     found equal on a liveness request since the last round (Folded)
//     is skipped: the digests would match too. A changed ring stretch
//     or a republished key it shares voids that evidence.
//
// Replica sets are learned once per round, not once per key: the node's
// verified stretch of the ring (Neighbors) decides every key it owes a
// copy of without an RPC. Only a key outside the stretch — foreign, on
// its way to a new home — or a round whose stretch could not be vouched
// for goes to the network resolver, so the decision to drop a copy is
// never taken on local state.
//
// The store is read as its ring-ordered index with each key's replica set
// beside it — the last round's over an unchanged store and stretch — so
// the keys a peer shares come out in the order their covering arc is
// folded in and no per-key map is built.
//
// Pulled items for keys this node has never seen are applied only when
// the node is actually in the key's replica set, so a transiently
// mis-scoped digest cannot seed stray copies that would oscillate
// against the re-homing pass. The round transfers O(digest) bytes per
// converged peer instead of O(data), which is the point.
func (c *Coordinator) AntiEntropyOnce(ctx context.Context) (pulled, pushed, dropped int, firstErr error) {
	m := c.metrics()
	if c.KeyID == nil {
		return 0, 0, 0, fmt.Errorf("replica anti-entropy: no KeyID mapping configured")
	}
	if purged := c.Engine.PurgeExpired(); purged > 0 {
		m.Expired.Add(uint64(purged))
	}

	now := c.Engine.Now()
	place, snap, sets, firstErr := c.placeAll(ctx, true)
	same := c.agreedPeers(place)
	var peers []string
	for i, set := range sets {
		at := slices.Index(set, c.Self)
		if at < 0 {
			continue // unresolved or foreign
		}
		// Republish: the owner re-stamps a live item entering the last
		// half of its TTL, so a key that is still wanted outlives its
		// expiry. The fresh stamp leaves the republish window immediately,
		// which keeps the round idempotent under a frozen clock. One engine
		// step re-stamps whatever is held by then, so a write the owner
		// installs meanwhile is republished, never overwritten.
		if en := snap[i]; at == 0 && c.TTL > 0 && !en.tombstone && now < en.expire && en.expire-now < uint64(c.TTL/2) {
			c.Engine.Restamp(en.key, c.Self, now+uint64(c.TTL))
			// The fresh stamp is news to every member the fold spoke for.
			same = slices.DeleteFunc(same, func(addr string) bool { return slices.Contains(set, addr) })
		}
		for _, addr := range set {
			if addr != c.Self && !slices.Contains(peers, addr) {
				peers = append(peers, addr)
			}
		}
	}
	slices.Sort(peers)

	dropped = c.rehomeForeign(ctx, snap, sets, &firstErr)

	for _, peer := range peers {
		if slices.Contains(same, peer) {
			continue // its fold matched on a liveness request: the digest would too
		}
		var arc cover
		for i, en := range snap {
			if shares(sets[i], c.Self, peer) {
				arc.add(en.id)
			}
		}
		lo, hi := arc.arc()
		local := c.Engine.RangeDigest(c.KeyID, lo, hi)
		resp, err := c.Call(ctx, peer, wire.Request{Type: wire.TDigest, Key: lo, KeyHi: hi})
		m.AEBytes.Add(digestWireBytes)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var divergent []uint32
		for b := 0; b < DigestBuckets; b++ {
			var remote uint64
			if b < len(resp.Digests) {
				remote = resp.Digests[b]
			}
			if local[b] != remote {
				divergent = append(divergent, uint32(b))
			}
		}
		if len(divergent) == 0 {
			continue // converged with this peer: the digest was the whole cost
		}
		pullResp, err := c.Call(ctx, peer, wire.Request{Type: wire.TSyncPull, Key: lo, KeyHi: hi, Buckets: divergent})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		theirs := make(map[string]wire.StoreItem, len(pullResp.Items))
		for _, it := range pullResp.Items {
			m.AEBytes.Add(itemWireBytes(it))
			theirs[it.Key] = it
			if _, held := c.Engine.Get(it.Key); !held {
				set, _, rErr := c.replicaSet(ctx, place, it.Key, c.KeyID(it.Key))
				if rErr != nil || !slices.Contains(set, c.Self) {
					continue // not ours to hold: never seed a stray copy
				}
			}
			if c.Engine.Apply(it) {
				pulled++
			}
		}
		// Push back what the peer provably lacks: our items in the
		// divergent buckets it did not return (or returned stale), but
		// only for keys the peer is a current member of — pushing
		// beyond membership would plant strays that the re-homing pass
		// keeps resurrecting.
		shared := map[string]bool{}
		for i, en := range snap {
			if shares(sets[i], c.Self, peer) {
				shared[en.key] = true
			}
		}
		var push []wire.StoreItem
		for _, it := range c.Engine.RangeItems(c.KeyID, lo, hi, divergent) {
			if !shared[it.Key] {
				continue
			}
			th, have := theirs[it.Key]
			if !have || supersedes(it, th) {
				push = append(push, it)
			}
		}
		if len(push) == 0 {
			continue
		}
		pushResp, err := c.Call(ctx, peer, wire.Request{Type: wire.TReplicate, Items: push})
		for _, it := range push {
			m.AEBytes.Add(itemWireBytes(it))
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		pushed += pushResp.Applied
		if pushResp.Applied > 0 {
			// Push-backs repair under-replication, so they count as
			// re-replication traffic alongside re-homed keys.
			for _, it := range push {
				m.RereplBytes.Add(uint64(len(it.Value)))
			}
		}
	}
	m.Lag.Set(float64(pulled + pushed))
	m.AERounds.Inc()
	return pulled, pushed, dropped, firstErr
}

// placeAll takes the round's snapshot of the store and each key's replica
// set, in a parallel slice: nil where the set could not be resolved, so
// the copy is kept and tried again next round. err is the first resolve
// error; place is the round's Placement. With reuse, a round whose
// snapshot and Placement are those of the last round that placed every
// key from the stretch takes that round's sets (roundSets).
func (c *Coordinator) placeAll(ctx context.Context, reuse bool) (place Placement, snap []entry, sets [][]string, err error) {
	place = c.placement(ctx)
	snap = c.Engine.snapshot(c.KeyID)
	if r := c.sets.Load(); reuse && r != nil && sameIndex(r.snap, snap) && r.place.equal(place) {
		c.metrics().LocalSets.Add(uint64(len(snap)))
		return place, snap, r.sets, nil
	}
	sets = make([][]string, len(snap))
	local := true
	for i, en := range snap {
		set, placed, rErr := c.replicaSet(ctx, place, en.key, en.id)
		local = local && placed
		if rErr != nil && err == nil {
			err = rErr
		}
		if rErr == nil && len(set) > 0 {
			sets[i] = set
		}
	}
	if reuse && local {
		c.sets.Store(&roundSets{place: place, snap: snap, sets: sets})
	}
	return place, snap, sets, err
}

// roundSets is a round's replica sets beside the snapshot and the
// Placement they were placed from, every one from the ring stretch: with
// neither changed, the next round's sets are these.
type roundSets struct {
	place Placement
	snap  []entry
	sets  [][]string
}

// sameIndex reports whether a and b are one listing of the store index.
func sameIndex(a, b []entry) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// shares reports whether set names both self and peer: a key the two
// must agree on.
func shares(set []string, self, peer string) bool {
	return slices.Contains(set, self) && slices.Contains(set, peer)
}

// rehomeForeign pushes keys this node no longer owes to their current
// replica-set members, batched per member in deterministic (ring-order,
// set-order) sequence, and drops a local copy only once every member of
// the key's set confirmed the batch that carried it — so a copy is never
// destroyed before its replacement provably exists.
func (c *Coordinator) rehomeForeign(ctx context.Context, snap []entry, sets [][]string, firstErr *error) (dropped int) {
	m := c.metrics()
	var members []string // first-appearance order over the ring
	var batches [][]wire.StoreItem
	var foreign []int
	for i, set := range sets {
		if set == nil || slices.Contains(set, c.Self) {
			continue
		}
		item, held := c.Engine.Get(snap[i].key)
		if !held {
			continue
		}
		foreign = append(foreign, i)
		for _, addr := range set {
			at := slices.Index(members, addr)
			if at < 0 {
				at = len(members)
				members, batches = append(members, addr), append(batches, nil)
			}
			batches[at] = append(batches[at], item)
		}
	}
	confirmed := make([]bool, len(members))
	for j, addr := range members {
		resp, err := c.Call(ctx, addr, wire.Request{Type: wire.TReplicate, Items: batches[j]})
		if err != nil {
			if *firstErr == nil {
				*firstErr = err
			}
			continue
		}
		confirmed[j] = true
		if resp.Applied > 0 {
			for _, it := range batches[j] {
				m.RereplBytes.Add(uint64(len(it.Value)))
			}
		}
	}
	unconfirmed := func(addr string) bool { return !confirmed[slices.Index(members, addr)] }
	for _, i := range foreign {
		if !slices.ContainsFunc(sets[i], unconfirmed) {
			c.Engine.Drop(snap[i].key)
			m.Dropped.Inc()
			dropped++
		}
	}
	return dropped
}

// SweepBytes reports what a full-transfer repair round would put on the
// wire for the current store and placement — every held item pushed
// whole to every other member of its replica set, regardless of
// divergence. It is an analytic figure and moves no data; the chaos
// suite uses it as the denominator digest sync is measured against.
func (c *Coordinator) SweepBytes(ctx context.Context) (uint64, error) {
	_, snap, sets, err := c.placeAll(ctx, false)
	if err != nil {
		return 0, err
	}
	var total uint64
	for i, en := range snap {
		item, ok := c.Engine.Get(en.key)
		if !ok {
			continue
		}
		for _, addr := range sets[i] {
			if addr != c.Self {
				total += itemWireBytes(item)
			}
		}
	}
	return total, nil
}
