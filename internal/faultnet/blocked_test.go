package faultnet

import (
	"testing"

	"repro/internal/wire"
)

func TestBlocked(t *testing.T) {
	nw := New(1, wire.WallClock)
	if nw.Blocked("n1", "n2") {
		t.Fatal("blocked with no partition installed")
	}
	nw.Partition([]string{"n1", "n3"}, []string{"n2"})
	if !nw.Blocked("n1", "n2") {
		t.Fatal("cross-group pair not blocked")
	}
	if nw.Blocked("n1", "n3") {
		t.Fatal("same-group pair blocked")
	}
	if nw.Blocked("n1", "n1") {
		t.Fatal("loopback blocked")
	}
	// Peers outside every group are unaffected, matching decide().
	if nw.Blocked("n1", "stranger") || nw.Blocked("stranger", "n2") {
		t.Fatal("ungrouped peer blocked")
	}
	nw.Heal()
	if nw.Blocked("n1", "n2") {
		t.Fatal("still blocked after heal")
	}
}
