package chord

import (
	"errors"

	"repro/internal/id"
)

// Reply is a node's answer to one routing step, or an ask's ring walk.
type Reply[P comparable] struct {
	Self, Next P // the answering node; the next hop (with Done, the key's successor; with Owner, Self)
	Done       bool
	Owner      bool // Self owns the key, on the global ring when hierarchical
	Layer      int  // the layer further up the answer climbed to; 0 = the one asked
}

// View is a node's routing state in one ring; Pred and Succ are nil
// when the node knows none.
type View[P comparable] struct {
	Self       P
	Pred, Succ *P
	Fingers    *Fingers[P]
}

// Node is how Answer reads a node: functions, not an interface, so a
// finger test costs one call into the caller's code, and no P, so the
// caller's closures here stay on its stack.
type Node[P comparable] struct {
	View func(layer int) View[P] // its state in its layer-l ring; 1 = global
	Owns func(key id.ID) bool    // it owns key on the global ring
	ID   func(P) id.ID
	Skip func(P) bool // a finger the node must not name
}

// Answer is node n's reply to a step toward key in its layer-`layer` ring,
// at being its state there (paper §3.2): it owns the key (ring-locally,
// or on the global ring when hierarchical: the destination check), the
// key lies in (self, first successor] (Done), or the step goes on to the
// closest preceding finger. ok is false when neither ownership nor a
// successor answers. A hierarchical step Done in a lower ring climbs: the
// node answers each layer up from its own state while the answer stays
// Done and it knows a successor there, and Layer names the last one.
func Answer[P comparable](n *Node[P], at View[P], layer int, key id.ID, hierarchical bool) (r Reply[P], ok bool) {
	self := n.ID(at.Self)
	r.Self = at.Self
	if hierarchical && n.Owns(key) || !hierarchical && at.Pred != nil && id.InOpenClosed(key, n.ID(*at.Pred), self) {
		r.Next, r.Done, r.Owner = at.Self, true, true
		return r, true
	}
	if at.Succ == nil {
		return r, false
	}
	r.Next, r.Done = at.Fingers.Step(self, *at.Succ, key, n.ID, n.Skip)
	for l := layer - 1; hierarchical && r.Done && l >= 1; l-- {
		up := n.View(l)
		if up.Succ == nil {
			break
		}
		r.Next, r.Done = up.Fingers.Step(self, *up.Succ, key, n.ID, n.Skip)
		r.Layer = l
	}
	return r, true
}

// ErrUnroutable is what an ask returns for a lower ring it cannot walk
// now: Route goes on one layer up.
var ErrUnroutable = errors.New("chord: ring unroutable")

// Trail is how Route went: the key's owner, the layers climbed after a
// walk reached the key's predecessor, in a reply or by a new ask, and the
// lower rings left as unroutable.
type Trail[P comparable] struct {
	Owner             P
	Climbs, Failovers int
}

// Route is the origin's side of the lookup (paper §3.2): a ring walk per
// layer, from layer top down to the global ring, each starting where the
// last ended. ask walks ring `layer` from `at`, whose hop supplier's reply
// named it (zero P: none), charges its hops and returns the reply that
// ended the walk; with ErrUnroutable, Self is where the next layer up
// starts. hop charges the hops the loop takes: a climbed reply's next
// hop, and the final forward from the key's predecessor on the global
// ring to the owner, a hop that is no message, counted here alone.
func Route[P comparable](origin P, top int, ask func(at, supplier P, layer int) (Reply[P], error), hop func(layer int, from, to P)) (Trail[P], error) {
	var t Trail[P]
	var none P
	at, supplier, layer := origin, none, top
	for {
		r, err := ask(at, supplier, layer)
		supplier = none
		if err == nil && r.Layer != 0 {
			t.Climbs += layer - r.Layer
			if layer = r.Layer; !r.Done {
				hop(layer, r.Self, r.Next) // the answerer stays the hop's supplier
				at, supplier = r.Next, r.Self
				continue
			}
		}
		switch {
		case err == nil && (r.Owner || layer == 1):
			if !r.Owner {
				hop(1, r.Self, r.Next) // the final forward
			}
			t.Owner = r.Next
			return t, nil
		case err == nil:
			t.Climbs++
		case layer == 1 || !errors.Is(err, ErrUnroutable):
			return t, err
		default:
			t.Failovers++
		}
		at, layer = r.Self, layer-1
	}
}
