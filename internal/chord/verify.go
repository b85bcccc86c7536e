package chord

import (
	"fmt"

	"repro/internal/id"
)

// Verify checks the table's structural invariants: members strictly
// ascending by identifier and every finger exactly the first member at or
// after ids[i] + 2^k. A nil error means the table is a correct plain
// Chord routing structure; the invariant harness uses it as the oracle
// other layers are compared against. For tables built with proximity
// neighbor selection use VerifyPNS.
func (t *Table) Verify() error { return t.verify(true) }

// VerifyPNS checks the invariants of a proximity-built table: member
// order as in Verify, and every finger inside its legal interval — the
// circular member range [successor(ids[i]+2^k), successor(ids[i]+2^k+1))
// — falling back to the exact successor when the interval is empty.
func (t *Table) VerifyPNS() error { return t.verify(false) }

func (t *Table) verify(exact bool) error {
	n := len(t.ids)
	if n == 0 {
		return fmt.Errorf("chord: empty table")
	}
	for i := 1; i < n; i++ {
		if !t.ids[i-1].Less(t.ids[i]) {
			return fmt.Errorf("chord: members %d,%d out of order (%s >= %s)",
				i-1, i, t.ids[i-1].Short(), t.ids[i].Short())
		}
	}
	for i := 0; i < n; i++ {
		for k := uint(0); k < id.Bits; k++ {
			target := id.AddPow2(t.ids[i], k)
			first := t.SuccessorIndex(target)
			got := t.Finger(i, k)
			if exact {
				if got != first {
					return fmt.Errorf("chord: member %d finger %d = %d, want successor(%s) = %d",
						i, k, got, target.Short(), first)
				}
				continue
			}
			lastExcl := i // the top interval [ids[i]+2^159, ids[i]) ends at self
			if k+1 < id.Bits {
				lastExcl = t.SuccessorIndex(id.AddPow2(t.ids[i], k+1))
			}
			if first == lastExcl {
				// Empty interval: the builder keeps the plain finger.
				if got != first {
					return fmt.Errorf("chord: member %d finger %d = %d, want fallback %d (empty interval)",
						i, k, got, first)
				}
				continue
			}
			inRange := false
			if first < lastExcl {
				inRange = first <= got && got < lastExcl
			} else {
				inRange = got >= first || got < lastExcl
			}
			if !inRange {
				return fmt.Errorf("chord: member %d finger %d = %d outside legal interval [%d,%d)",
					i, k, got, first, lastExcl)
			}
		}
	}
	return nil
}
