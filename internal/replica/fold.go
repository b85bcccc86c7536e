package replica

import (
	"math"
	"slices"

	"repro/internal/id"
)

// A fold is one 64-bit word for what a node holds in an arc of the ring:
// the XOR of the live items' ItemHash memos there — the XOR of
// RangeDigest's buckets over the arc — XORed with a tag of the arc. The arc
// never travels with a fold, so the tag is what keeps folds of different
// arcs from comparing equal. A node asks each replica peer its fold on a
// liveness request stabilization sends anyway (Fold) and answers the folds
// it is asked (SameFold); a peer that answered "same" gets no digest in
// the round that follows (DESIGN §13).

// foldWireBytes is what a fold adds to a liveness request: Key[8:16].
const foldWireBytes = 8

// arcTag binds a fold to its arc (lo, hi]: FNV-1a over the two bounds,
// with every whole-ring arc (lo == hi) named (0, 0], as two nodes may name
// it from different members.
func arcTag(lo, hi id.ID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	if lo == hi {
		lo, hi = id.ID{}, id.ID{}
	}
	h := uint64(offset64)
	for _, bound := range [2]id.ID{lo, hi} {
		for _, b := range bound {
			h = (h ^ uint64(b)) * prime64
		}
	}
	return h
}

// foldMemo is the store's folds over the arcs of one Placement, kept until
// a mutation lands, the Placement changes or the clock leaves [at, horizon):
// before at, or at the earliest expiry among the folded items.
type foldMemo struct {
	place       *Placement
	gen         uint64
	at, horizon uint64
	folds       []uint64
}

// foldArcs returns, in buf (grown when short), the fold of the store over
// each of p's arcs without the arc's tag: every live item's memoised
// ItemHash XORed into the arc holding its key (arcs are disjoint), expiry
// judged as RangeDigest judges it. The folds are memoised (foldMemo), so
// asking again of an unchanged store walks nothing.
func (e *Engine) foldArcs(keyID func(string) [20]byte, p *Placement, buf []uint64) []uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	now, m := e.Now(), &e.folds
	if m.place != p || m.gen != e.gen || now < m.at || now >= m.horizon {
		m.folds = slices.Grow(m.folds[:0], len(p.arcs))[:len(p.arcs)]
		clear(m.folds)
		m.place, m.gen, m.at, m.horizon = p, e.gen, now, math.MaxUint64
		for k, h := range e.items {
			if Expired(h.item, now) {
				continue
			}
			kid := id.ID(e.idLocked(keyID, k, h))
			for i, a := range p.arcs {
				if id.InOpenClosed(kid, a.lo, a.hi) {
					m.folds[i] ^= h.hash
					if h.item.Expire != 0 {
						m.horizon = min(m.horizon, h.item.Expire)
					}
					break
				}
			}
		}
	}
	return append(buf[:0], m.folds...)
}

// run returns the arcs i..j of p whose replica sets name member. They are
// consecutive: a member is in the set of each of the Factor arcs ending at
// it, the first at the arc it owns.
func (p Placement) run(member string) (i, j int, ok bool) {
	for k, a := range p.arcs {
		if slices.Contains(a.set, member) {
			if !ok {
				i, ok = k, true
			}
			j = k
		}
	}
	return i, j, ok
}

// equal reports whether p and q decide the same arcs with the same sets.
func (p Placement) equal(q Placement) bool {
	return slices.EqualFunc(p.arcs, q.arcs, func(a, b arc) bool {
		return a.lo == b.lo && a.hi == b.hi && slices.Equal(a.set, b.set)
	})
}

// Fold is the fold this node asks peer to compare on a liveness request:
// over the arc the two share by the Placement of this node's last
// anti-entropy round. It is 0 — nothing to ask — where this node would send
// the peer no digest: that round placed no arc whose set names peer, or
// this node holds nothing there (a fold of no items; the 2^-64 chance that
// items fold to 0 too costs a digest). What this node lacks there, the
// peer's own round asks about.
func (c *Coordinator) Fold(peer string) uint64 {
	p := c.last.Load()
	if p == nil {
		return 0
	}
	i, j, ok := p.run(peer)
	if !ok {
		return 0
	}
	var buf [8]uint64
	var items uint64
	for _, f := range c.Engine.foldArcs(c.KeyID, p, buf[:])[i : j+1] {
		items ^= f
	}
	if items == 0 {
		return 0
	}
	c.metrics().AEBytes.Add(foldWireBytes)
	return items ^ arcTag(p.arcs[i].lo, p.arcs[j].hi)
}

// SameFold answers a fold a peer asked: whether it equals this node's fold
// of some run of consecutive arcs of its last Placement — of the same arc,
// then, holding the same live items. Trying every run spares the request a
// name for the asker: the arc tag already rules out every other arc.
func (c *Coordinator) SameFold(fold uint64) bool {
	if fold == 0 {
		return false
	}
	p := c.last.Load()
	if p == nil {
		return false
	}
	var buf [8]uint64
	folds := c.Engine.foldArcs(c.KeyID, p, buf[:])
	for i := range folds {
		x := uint64(0)
		for j := i; j < len(folds); j++ {
			x ^= folds[j]
			if arcTag(p.arcs[i].lo, p.arcs[j].hi)^x == fold {
				return true
			}
		}
	}
	return false
}

// agreedPeers takes the fold evidence gathered since the last round
// (Folded) and records place as the Placement the next round's folds are
// taken over; one equal to the last is not recorded, so the memos taken
// over the last stand. The evidence was taken over the last round's
// Placement, so it stands only when this round's is the same: a stretch
// that changed since — a new predecessor, a successor gone — voids every
// answer.
func (c *Coordinator) agreedPeers(place Placement) []string {
	var same []string
	if c.Folded != nil {
		same = c.Folded()
	}
	if prev := c.last.Load(); prev != nil && prev.equal(place) {
		return same
	}
	fresh := place // allocated only here: a kept Placement costs nothing
	c.last.Store(&fresh)
	return nil
}
