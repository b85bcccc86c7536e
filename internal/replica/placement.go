package replica

import (
	"context"

	"repro/internal/id"
	"repro/internal/wire"
)

// NeighborsFunc reports the caller's verified stretch of the global
// ring, in ring order: its Factor nearest predecessors farthest first,
// the node itself at index self, then its successor list. On a ring too
// small to hold Factor distinct predecessors the chain starts at the node
// itself instead — it closed the ring, so the stretch covers all of it.
// ok is false when the stretch cannot be vouched for: a predecessor is
// unknown, unreachable, or does not name the next chain member as its
// successor.
type NeighborsFunc func(ctx context.Context) (chain []wire.Peer, self int, ok bool)

// OwnerReadFunc performs a quorum operation's first exchange, first — a
// Get's TStoreGet or a write's TStorePut, Layer 1 set — at the key's
// owner, with ownership checked on that exchange itself: the node believed
// to own the key acts on it only if it does, and names its successors. On
// ok, owner is the node that answered and answer its reply (the item for a
// get, the stamp it installed for a put), whose Succ completes the key's
// replica set. Not ok means nobody vouched for owning the key; the caller
// resolves the set over the network instead.
type OwnerReadFunc func(ctx context.Context, first wire.Request) (owner string, answer wire.Response, ok bool)

// Placement maps the key arcs a ring stretch decides to their replica
// sets. The zero value decides nothing.
type Placement struct {
	arcs []arc
}

// arc is the keys (lo, hi] owned by the chain member at hi.
type arc struct {
	lo, hi id.ID
	set    []string
}

// NewPlacement computes the replica set of every arc between two
// consecutive members of chain up to chain[self] (see NeighborsFunc): the
// member closing the arc owns it, and the members after it — successor
// order, through ReplicaSet — complete the set. The node at chain[self]
// is a member of every one of them, which is the point: these are exactly
// the keys it owes a copy of.
func NewPlacement(chain []wire.Peer, self, factor int) Placement {
	p := Placement{arcs: make([]arc, 0, self)}
	for i := 1; i <= self; i++ {
		p.arcs = append(p.arcs, arc{
			lo: id.ID(chain[i-1].ID), hi: id.ID(chain[i].ID),
			set: ReplicaSet(nil, chain[i].Addr, chain[i+1:], factor),
		})
	}
	return p
}

// SetOf returns the replica set of the key with identifier keyID, or
// false when the key lies outside the stretch. The slice is shared
// between calls and must not be modified.
func (p Placement) SetOf(keyID [20]byte) ([]string, bool) {
	for _, a := range p.arcs {
		if id.InOpenClosed(id.ID(keyID), a.lo, a.hi) {
			return a.set, true
		}
	}
	return nil, false
}

// placement learns this round's local source of replica sets. It is the
// zero Placement — every key resolves over the network, as a Coordinator
// without Neighbors always does — when the stretch cannot be vouched for,
// and an empty store, with no set to learn, does not ask.
func (c *Coordinator) placement(ctx context.Context) Placement {
	if c.Neighbors == nil || c.Engine.Len() == 0 {
		return Placement{}
	}
	chain, self, ok := c.Neighbors(ctx)
	if !ok {
		return Placement{}
	}
	return NewPlacement(chain, self, c.Opts.WithDefaults().Factor)
}

// replicaSet maps a held or pulled key, whose identifier is kid, to its
// replica set: computed from the ring stretch when the key falls inside
// it (true), looked up over the network otherwise — a foreign key
// awaiting re-home, or a round whose stretch could not be learned.
func (c *Coordinator) replicaSet(ctx context.Context, p Placement, key string, kid id.ID) ([]string, bool, error) {
	if set, ok := p.SetOf(kid); ok {
		c.metrics().LocalSets.Inc()
		return set, true, nil
	}
	set, err := c.resolve(ctx, key)
	return set, false, err
}

// locate finds a quorum operation's replica set. When the key's owner
// vouched for it on the operation's first request (OwnerRead), asked is
// true, answer is its reply to first, which the caller uses instead of
// sending first to set[0] again, and the set is built in buf[:0] from it,
// so a caller's array keeps the set off the heap.
func (c *Coordinator) locate(ctx context.Context, first wire.Request, buf []string) (set []string, answer wire.Response, asked bool, err error) {
	if c.OwnerRead != nil {
		var owner string
		if owner, answer, asked = c.OwnerRead(ctx, first); asked {
			c.metrics().LocalSets.Inc()
			return ReplicaSet(buf, owner, answer.Succ, c.Opts.WithDefaults().Factor), answer, true, nil
		}
	}
	set, err = c.resolve(ctx, first.Name)
	return set, wire.Response{}, false, err
}

// resolve is the fallback under both: the network resolver, counted so
// that a slide back to per-key lookups shows on /metrics.
func (c *Coordinator) resolve(ctx context.Context, key string) ([]string, error) {
	c.metrics().WalkSets.Inc()
	return c.Resolve(ctx, key)
}
