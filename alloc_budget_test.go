//go:build !race

package hieras

import (
	"testing"

	"repro/internal/id"
)

// TestAllocBudgetSimLookup: a simulated lookup through the façade makes
// no heap object. The key is hashed from a stack buffer and the route
// keeps its totals only, on the paper's 1,000-node TS system.
func TestAllocBudgetSimLookup(t *testing.T) {
	sys, err := New(Options{Model: "ts", Nodes: 1000, Landmarks: 4, Depth: 2, Seed: 2003, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	key := id.HashString("a key").String() // 40 hex characters, as bench/perf draws them
	var hops int
	if avg := testing.AllocsPerRun(200, func() {
		r, _ := sys.Lookup(17, key)
		hops += r.Hops
	}); avg != 0 {
		t.Errorf("System.Lookup made %.2f heap objects, budget 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		r, _ := sys.ChordLookup(17, key)
		hops += r.Hops
	}); avg != 0 {
		t.Errorf("System.ChordLookup made %.2f heap objects, budget 0", avg)
	}
	if hops == 0 {
		t.Fatal("no lookup took a hop: the budget measured nothing")
	}
}
