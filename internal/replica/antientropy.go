package replica

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"

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
// travelling stamp, so a purged replica and a lagging one agree.
func (e *Engine) RangeDigest(keyID func(string) [20]byte, lo, hi [20]byte) []uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now()
	digest := make([]uint64, DigestBuckets)
	for k, h := range e.items {
		if Expired(h.item, now) {
			continue
		}
		kid := e.idLocked(keyID, k, h)
		if !id.InOpenClosed(id.ID(kid), id.ID(lo), id.ID(hi)) {
			continue
		}
		digest[BucketOf(kid)] ^= ItemHash(h.item)
	}
	return digest
}

// RangeItems returns deep copies of the held items in the arc (lo, hi]
// whose digest bucket is listed in buckets, sorted by key. Expired
// items are omitted, mirroring RangeDigest.
func (e *Engine) RangeItems(keyID func(string) [20]byte, lo, hi [20]byte, buckets []uint32) []wire.StoreItem {
	want := make(map[int]bool, len(buckets))
	for _, b := range buckets {
		want[int(b)] = true
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now()
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
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// coveringArc returns the minimal (lo, hi] arc containing every ID in
// ids: the complement of the largest circular gap between consecutive
// IDs. A digest over this arc sees exactly the keys two replica-set
// members share (membership arcs are contiguous on the ring), so
// converged peers produce identical digests and the exchange settles
// at zero transfer.
func coveringArc(ids []id.ID) (lo, hi id.ID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i].Cmp(ids[j]) < 0 })
	// Largest gap follows ids[gapAt] (circularly); the arc runs from
	// just before ids[gapAt+1] around to ids[gapAt].
	gapAt := len(ids) - 1 // wrap gap: ids[n-1] -> ids[0]
	largest := id.Sub(ids[0], ids[len(ids)-1])
	for i := 0; i+1 < len(ids); i++ {
		if g := id.Sub(ids[i+1], ids[i]); g.Cmp(largest) > 0 {
			largest = g
			gapAt = i
		}
	}
	first := ids[(gapAt+1)%len(ids)]
	one := id.ID{19: 1}
	return id.Sub(first, one), ids[gapAt]
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
//     to lack or hold stale.
//
// Replica sets are learned once per round, not once per key: the node's
// verified stretch of the ring (Neighbors) decides every key it owes a
// copy of without an RPC. Only a key outside the stretch — foreign, on
// its way to a new home — or a round whose stretch could not be vouched
// for goes to the network resolver, so the decision to drop a copy is
// never taken on local state.
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

	now := c.clock()
	place := c.placement(ctx)
	keyMembers := map[string][]string{}
	selfMember := map[string]bool{}
	peerKeys := map[string][]string{} // peer -> shared keys (self and peer both members)
	var peers []string                // first-appearance order over sorted keys
	for _, key := range c.Engine.Keys() {
		item, ok := c.Engine.Get(key)
		if !ok {
			continue
		}
		set, err := c.replicaSet(ctx, place, key)
		if err != nil || len(set) == 0 {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			continue // unresolved: keep the copy, try next round
		}
		keyMembers[key] = set
		for i, addr := range set {
			if addr == c.Self {
				selfMember[key] = true
				// Republish: the owner re-stamps a live item entering the
				// last half of its TTL, so a key that is still wanted
				// outlives its expiry. The fresh stamp leaves the republish
				// window immediately, which keeps the round idempotent
				// under a frozen clock.
				if i == 0 && c.TTL > 0 && item.Expire != 0 && !item.Tombstone &&
					!Expired(item, now) && item.Expire-now < c.TTL/2 {
					version, writer := c.Engine.Stamp(key, c.Self, item.Version)
					item.Version, item.Writer, item.Expire = version, writer, now+c.TTL
					c.Engine.Apply(item)
				}
			}
		}
	}
	for key, set := range keyMembers {
		if !selfMember[key] {
			continue
		}
		for _, addr := range set {
			if addr == c.Self {
				continue
			}
			if _, seen := peerKeys[addr]; !seen {
				peers = append(peers, addr)
			}
			peerKeys[addr] = append(peerKeys[addr], key)
		}
	}
	sort.Strings(peers)
	for _, addr := range peers {
		sort.Strings(peerKeys[addr])
	}

	dropped = c.rehomeForeign(ctx, keyMembers, selfMember, &firstErr)

	for _, peer := range peers {
		shared := peerKeys[peer]
		ids := make([]id.ID, 0, len(shared))
		for _, key := range shared {
			ids = append(ids, id.ID(c.Engine.KeyID(c.KeyID, key)))
		}
		lo, hi := coveringArc(ids)
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
				set, rErr := c.replicaSet(ctx, place, it.Key)
				if rErr != nil || !contains(set, c.Self) {
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
		sharedSet := make(map[string]bool, len(shared))
		for _, key := range shared {
			sharedSet[key] = true
		}
		var push []wire.StoreItem
		for _, it := range c.Engine.RangeItems(c.KeyID, lo, hi, divergent) {
			if !sharedSet[it.Key] {
				continue
			}
			th, have := theirs[it.Key]
			if !have || Supersedes(it, th) {
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

// rehomeForeign pushes keys this node no longer owes to their current
// replica-set members, batched per member in deterministic (sorted-key,
// set-order) sequence, and drops a local copy only once every member of
// the key's set confirmed the batch that carried it — so a copy is never
// destroyed before its replacement provably exists.
func (c *Coordinator) rehomeForeign(ctx context.Context, keyMembers map[string][]string, selfMember map[string]bool, firstErr *error) (dropped int) {
	m := c.metrics()
	type plan struct{ items []wire.StoreItem }
	batches := map[string]*plan{}
	var order []string
	var foreign []string
	for _, key := range c.Engine.Keys() {
		set, ok := keyMembers[key]
		if !ok || selfMember[key] {
			continue
		}
		item, held := c.Engine.Get(key)
		if !held {
			continue
		}
		foreign = append(foreign, key)
		for _, addr := range set {
			if addr == c.Self {
				continue
			}
			b := batches[addr]
			if b == nil {
				b = &plan{}
				batches[addr] = b
				order = append(order, addr)
			}
			b.items = append(b.items, item)
		}
	}
	memberOK := map[string]bool{}
	for _, addr := range order {
		b := batches[addr]
		resp, err := c.Call(ctx, addr, wire.Request{Type: wire.TReplicate, Items: b.items})
		if err != nil {
			if *firstErr == nil {
				*firstErr = err
			}
			continue
		}
		memberOK[addr] = true
		if resp.Applied > 0 {
			for _, it := range b.items {
				m.RereplBytes.Add(uint64(len(it.Value)))
			}
		}
	}
	for _, key := range foreign {
		confirmed := true
		for _, addr := range keyMembers[key] {
			if addr != c.Self && !memberOK[addr] {
				confirmed = false
				break
			}
		}
		if confirmed {
			c.Engine.Drop(key)
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
	var total uint64
	place := c.placement(ctx)
	for _, key := range c.Engine.Keys() {
		item, ok := c.Engine.Get(key)
		if !ok {
			continue
		}
		set, err := c.replicaSet(ctx, place, key)
		if err != nil {
			return total, err
		}
		for _, addr := range set {
			if addr != c.Self {
				total += itemWireBytes(item)
			}
		}
	}
	return total, nil
}

func contains(set []string, addr string) bool {
	for _, a := range set {
		if a == addr {
			return true
		}
	}
	return false
}
