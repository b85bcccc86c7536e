package core

import (
	"testing"
)

// TestCheckInvariantsRandomOverlays runs the structural checker against
// overlays built from random topologies across the configuration space:
// depths 1-4, plain and proximity fingers, fixed and adaptive binning.
func TestCheckInvariantsRandomOverlays(t *testing.T) {
	cases := []struct {
		name  string
		hosts int
		cfg   Config
		seed  int64
	}{
		{"depth1", 40, Config{Depth: 1}, 11},
		{"depth2", 60, Config{Depth: 2, Landmarks: 4}, 12},
		{"depth3", 60, Config{Depth: 3, Landmarks: 4}, 13},
		{"depth4", 80, Config{Depth: 4, Landmarks: 3}, 14},
		{"pns", 60, Config{Depth: 2, Landmarks: 4, ProximityFingers: true}, 15},
		{"adaptive", 60, Config{Depth: 3, Landmarks: 4, AdaptiveBinning: true}, 16},
		{"dropped landmark", 60, Config{Depth: 2, Landmarks: 4, DropLandmarks: []int{1}}, 17},
		{"tiny", 3, Config{Depth: 2, Landmarks: 2}, 18},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := buildOverlay(t, tc.hosts, tc.cfg, tc.seed)
			if err := o.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckInvariantsCatchesCorruption corrupts one overlay relation at a
// time and verifies the checker notices.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	o := buildOverlay(t, 50, Config{Depth: 2, Landmarks: 4}, 21)
	if err := o.CheckInvariants(); err != nil {
		t.Fatalf("fresh overlay fails: %v", err)
	}

	t.Run("wrong bin", func(t *testing.T) {
		i := 7
		orig := o.nodes[i].RingNames[0]
		o.nodes[i].RingNames[0] = orig + "!"
		defer func() { o.nodes[i].RingNames[0] = orig }()
		if err := o.CheckInvariants(); err == nil {
			t.Fatal("renamed bin not detected")
		}
	})

	t.Run("global ring not the identity", func(t *testing.T) {
		o.global.Global[3], o.global.Global[4] = 4, 3
		defer func() { o.global.Global[3], o.global.Global[4] = 3, 4 }()
		if err := o.CheckInvariants(); err == nil {
			t.Fatal("permuted layer-1 mapping not detected")
		}
	})

	t.Run("missing ring table", func(t *testing.T) {
		var key RingKey
		var rt *RingTable
		for k, v := range o.ringTables {
			key, rt = k, v
			break
		}
		delete(o.ringTables, key)
		defer func() { o.ringTables[key] = rt }()
		if err := o.CheckInvariants(); err == nil {
			t.Fatal("missing ring table not detected")
		}
	})

	t.Run("misplaced ring table", func(t *testing.T) {
		var rt *RingTable
		for _, v := range o.ringTables {
			rt = v
			break
		}
		rt.StoredAt = (rt.StoredAt + 1) % o.N()
		defer func() { rt.StoredAt = o.global.Table.SuccessorIndex(rt.RingID) }()
		if err := o.CheckInvariants(); err == nil {
			t.Fatal("misplaced ring table not detected")
		}
	})

	if err := o.CheckInvariants(); err != nil {
		t.Fatalf("overlay not restored after corruption trials: %v", err)
	}
}
