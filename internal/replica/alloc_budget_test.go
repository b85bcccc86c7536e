//go:build !race

package replica

import (
	"fmt"
	"testing"
)

// TestRangeDigestAllocBudget: a digest over a store whose identifiers are
// memoised is one heap object, the digest itself, and no call of the key
// mapping.
func TestRangeDigestAllocBudget(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 256; i++ {
		e.Apply(item(fmt.Sprintf("k%d", i), "v", 1, "w#1"))
	}
	hashed := 0
	keyID := func(k string) [20]byte { hashed++; return testKeyID(k) }
	var whole [20]byte
	e.RangeDigest(keyID, whole, whole)
	if hashed != 256 {
		t.Fatalf("first digest hashed %d keys, want 256", hashed)
	}
	hashed = 0
	avg := testing.AllocsPerRun(100, func() { e.RangeDigest(keyID, whole, whole) })
	if avg != 1 || hashed != 0 {
		t.Errorf("a warm digest made %.1f heap objects and hashed %d keys, budget 1 and 0", avg, hashed)
	}
}
