package transport

import (
	"repro/internal/id"
	"repro/internal/wire"
)

// fingerTable is one layer's Chord finger table: slot k names
// successor(self + 2^k). A ring of n members gives a node only about
// log2(n) distinct fingers among its id.Bits slots, so each distinct
// peer is stored once and a slot is a one-byte reference to it: 160 B of
// slots and a handful of 48 B entries, where an array of wire.Peer was
// 6.4 KB a layer.
type fingerTable struct {
	slot  [id.Bits]uint8 // 1 + index into peers; 0 = unset
	peers []fingerPeer
}

// fingerPeer is one distinct finger and the number of slots naming it.
type fingerPeer struct {
	wire.Peer
	refs uint8
}

// get returns slot k's finger; a zero Addr means unset.
func (t *fingerTable) get(k int) wire.Peer {
	if s := t.slot[k]; s != 0 {
		return t.peers[s-1].Peer
	}
	return wire.Peer{}
}

// set points slot k at p; a zero Addr clears it. Setting a slot to the
// finger it already names, or to a finger another slot names, allocates
// nothing.
func (t *fingerTable) set(k int, p wire.Peer) {
	if s := t.slot[k]; s != 0 && t.peers[s-1].Peer == p {
		return
	}
	t.clear(k)
	if p.Addr == "" {
		return
	}
	i := 0
	for i < len(t.peers) && t.peers[i].Peer != p {
		i++
	}
	if i == len(t.peers) {
		t.peers = append(t.peers, fingerPeer{Peer: p})
	}
	t.peers[i].refs++
	t.slot[k] = uint8(i + 1)
}

// clear unsets slot k, dropping its finger's entry when no slot names it
// any more: the last entry moves into its place.
func (t *fingerTable) clear(k int) {
	s := t.slot[k]
	if s == 0 {
		return
	}
	t.slot[k] = 0
	if t.peers[s-1].refs--; t.peers[s-1].refs > 0 {
		return
	}
	last := uint8(len(t.peers))
	if s != last {
		t.peers[s-1] = t.peers[last-1]
		for j := range t.slot {
			if t.slot[j] == last {
				t.slot[j] = s
			}
		}
	}
	t.peers[last-1] = fingerPeer{}
	t.peers = t.peers[:last-1]
}

// purge unsets every slot naming addr and reports whether there was one.
func (t *fingerTable) purge(addr string) (purged bool) {
	for k := range t.slot {
		if s := t.slot[k]; s != 0 && t.peers[s-1].Addr == addr {
			t.clear(k)
			purged = true
		}
	}
	return purged
}

// closestPreceding is Chord's closest preceding finger: the finger in the
// highest slot that lies strictly between self and key and is not the
// node itself. Neighbouring slots mostly name one peer, and a peer that
// failed the test in one slot fails it in the next, so a run of equal
// slots is tested once.
func (t *fingerTable) closestPreceding(selfAddr string, self, key id.ID) (wire.Peer, bool) {
	var tested uint8
	for k := id.Bits - 1; k >= 0; k-- {
		s := t.slot[k]
		if s == 0 || s == tested {
			continue
		}
		tested = s
		f := &t.peers[s-1].Peer
		if f.Addr != selfAddr && id.Between(peerID(*f), self, key) {
			return *f, true
		}
	}
	return wire.Peer{}, false
}

// expand returns the table as id.Bits slots, unset ones zero.
func (t *fingerTable) expand() []wire.Peer {
	out := make([]wire.Peer, id.Bits)
	for k := range out {
		out[k] = t.get(k)
	}
	return out
}
