package chord

import "repro/internal/id"

// Fingers is one node's finger table in one ring: slot k names
// successor(self + 2^k), or a member of [self + 2^k, self + 2^(k+1))
// chosen by proximity (BuildTablePNS). A ring of n members gives a node
// about log2(n) distinct fingers, so each is stored once, with a count of
// the one-byte slots naming it. P names a member: a member index in the
// oracle's Table, a wire.Peer on a live node; the oracle and the live
// node both route with Step. The zero Fingers has every slot unset. Every
// writer keeps Chord's finger definition, which ClosestPreceding relies
// on: slot k is unset, names the node itself or a member 2^k or more past it.
type Fingers[P comparable] struct {
	slot    [id.Bits]uint8 // 1 + index into entries; 0 = unset
	entries []fingerEntry[P]
}

// fingerEntry is one distinct finger and the number of slots naming it.
type fingerEntry[P comparable] struct {
	ref  P
	refs uint8
}

// Get returns slot k's finger, the zero P when the slot is unset.
func (f *Fingers[P]) Get(k int) (p P) {
	if s := f.slot[k]; s != 0 {
		p = f.entries[s-1].ref
	}
	return p
}

// Set points slot k at p, which must meet the finger definition there.
// Setting a slot to the finger it already names, or to a finger another
// slot names, allocates nothing.
func (f *Fingers[P]) Set(k int, p P) {
	if s := f.slot[k]; s != 0 && f.entries[s-1].ref == p {
		return
	}
	f.Clear(k)
	i := 0
	for i < len(f.entries) && f.entries[i].ref != p {
		i++
	}
	if i == len(f.entries) {
		f.entries = append(f.entries, fingerEntry[P]{ref: p})
	}
	f.entries[i].refs++
	f.slot[k] = uint8(i + 1)
}

// Clear unsets slot k, dropping its finger's entry when no slot names it
// any more: the last entry moves into its place.
func (f *Fingers[P]) Clear(k int) {
	s := f.slot[k]
	if s == 0 {
		return
	}
	f.slot[k] = 0
	if f.entries[s-1].refs--; f.entries[s-1].refs > 0 {
		return
	}
	last := uint8(len(f.entries))
	if s != last {
		f.entries[s-1] = f.entries[last-1]
		for j := range f.slot {
			if f.slot[j] == last {
				f.slot[j] = s
			}
		}
	}
	f.entries[last-1] = fingerEntry[P]{}
	f.entries = f.entries[:last-1]
}

// Purge unsets every slot whose finger matches and reports whether there
// was one.
func (f *Fingers[P]) Purge(match func(P) bool) (purged bool) {
	for k := range f.slot {
		if s := f.slot[k]; s != 0 && match(f.entries[s-1].ref) {
			f.Clear(k)
			purged = true
		}
	}
	return purged
}

// Expand returns the table as id.Bits slots, unset ones zero.
func (f *Fingers[P]) Expand() []P {
	out := make([]P, id.Bits)
	for k := range out {
		out[k] = f.Get(k)
	}
	return out
}

// fill points the slots below ends[0] at refs[0], those from there below
// ends[1] at refs[1], and so on, allocating the entries once: BuildTable
// finds each run of exact fingers whole.
func (f *Fingers[P]) fill(refs []P, ends []uint8) {
	f.entries = make([]fingerEntry[P], len(refs))
	k := uint8(0)
	for j, p := range refs {
		f.entries[j] = fingerEntry[P]{ref: p, refs: ends[j] - k}
		for ; k < ends[j]; k++ {
			f.slot[k] = uint8(j + 1)
		}
	}
}

// ClosestPreceding is Chord's closest_preceding_finger: the finger in the
// highest slot inside (self, key) that skip, if non-nil, does not reject
// (the live node's own address); idOf reads a finger's identifier. A run
// of slots naming one finger is tested once.
// By the finger definition no slot above the top bit of Dist(self, key)
// precedes key, so the scan starts there (at the top slot when key is
// self: (self, self) is the whole ring).
func (f *Fingers[P]) ClosestPreceding(self, key id.ID, idOf func(P) id.ID, skip func(P) bool) (P, bool) {
	k := id.Bits - 1
	if d := id.Dist(self, key).BitLen() - 1; d >= 0 {
		k = d
	}
	var tested uint8
	for ; k >= 0; k-- {
		s := f.slot[k]
		if s == 0 || s == tested {
			continue
		}
		tested = s
		p := f.entries[s-1].ref
		if (skip == nil || !skip(p)) && id.Between(idOf(p), self, key) {
			return p, true
		}
	}
	var zero P
	return zero, false
}

// Step is one Chord routing step at self, whose successor is succ: done
// (naming succ) when key lies in (self, succ], else the closest preceding
// finger, else succ. (self, self] is the whole ring: a ring of one.
func (f *Fingers[P]) Step(self id.ID, succ P, key id.ID, idOf func(P) id.ID, skip func(P) bool) (next P, done bool) {
	if id.InOpenClosed(key, self, idOf(succ)) {
		return succ, true
	}
	if p, ok := f.ClosestPreceding(self, key, idOf, skip); ok {
		return p, false
	}
	return succ, false
}
