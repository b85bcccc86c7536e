package chord

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/id"
)

func verifyMembers(n int) []Member {
	ms := make([]Member, n)
	for i := range ms {
		ms[i] = Member{ID: id.HashString("verify:" + strconv.Itoa(i)), Host: i}
	}
	return ms
}

func TestVerifyBuiltTables(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 64} {
		tbl, err := BuildTable(verifyMembers(n), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Verify(); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	tbl, err := BuildTable(verifyMembers(16), 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	broken := 0
	for trial := 0; trial < 50; trial++ {
		i := rng.Intn(tbl.Len())
		k := rng.Intn(id.Bits)
		f := &tbl.fingers[i]
		orig := f.Get(k)
		bad := int32(rng.Intn(tbl.Len()))
		f.Set(k, bad)
		if bad != orig {
			if err := tbl.Verify(); err == nil {
				t.Fatalf("corrupted finger (%d,%d): %d -> %d not detected", i, k, orig, bad)
			}
			broken++
		}
		f.Set(k, orig)
	}
	if broken == 0 {
		t.Fatal("no corruption trials actually changed a finger")
	}
	if err := tbl.Verify(); err != nil {
		t.Fatalf("restored table fails verification: %v", err)
	}
}

func TestVerifyCatchesMemberDisorder(t *testing.T) {
	tbl, err := BuildTable(verifyMembers(8), 0)
	if err != nil {
		t.Fatal(err)
	}
	tbl.ids[2], tbl.ids[3] = tbl.ids[3], tbl.ids[2]
	if err := tbl.Verify(); err == nil {
		t.Fatal("swapped member identifiers not detected")
	}
}

func TestVerifyPNS(t *testing.T) {
	lat := func(a, b int) float64 { return float64((a - b) * (a - b)) }
	tbl, err := BuildTablePNS(verifyMembers(64), lat, 8, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.VerifyPNS(); err != nil {
		t.Fatalf("PNS table fails PNS verification: %v", err)
	}
	// A PNS table over a non-trivial latency space should deviate from the
	// exact table somewhere — otherwise VerifyPNS is not being exercised
	// beyond Verify.
	if err := tbl.Verify(); err == nil {
		t.Log("PNS table happens to equal the exact table (allowed, but weakens the test)")
	}
}
