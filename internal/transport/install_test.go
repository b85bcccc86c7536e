package transport

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/wire"
)

// installCoord places node i on the virtual plane 0–59 ms from landmark
// n0 (even i) or n1 (odd i), so the default ladder bins a cluster into two
// parities, each split by distance into two layer-2 rings and four
// layer-3 rings.
func installCoord(i int) [2]float64 {
	return [2]float64{float64(i%2*1000 + i*7%60), 0}
}

// installNodes starts n nodes "n0".."n<n-1>" at the given depth and route
// mode on a direct net of their own, placed by installCoord, n0 and n1
// the landmarks, and joins none of them.
func installNodes(t *testing.T, n, depth int, mode string) (*DirectNet, []*Node) {
	t.Helper()
	dn := NewDirectNet()
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = startNode(t, dn, "n"+strconv.Itoa(i), Config{
			Depth: depth, Landmarks: []string{"n0", "n1"}, Coord: installCoord(i), RouteMode: mode,
		})
	}
	return dn, nodes
}

// maintainRound is one maintenance period of a deployment's timers, with
// every finger rebuilt: the clock moves a second, then each node runs
// StabilizeOnce and BuildAllFingers. It returns the requests the round
// served.
func maintainRound(dn *DirectNet, nodes []*Node) int64 {
	before := served(nodes)
	dn.Clock().Advance(time.Second)
	for _, nd := range nodes {
		_ = nd.StabilizeOnce()
		_ = nd.BuildAllFingers()
	}
	return served(nodes) - before
}

func served(nodes []*Node) (total int64) {
	for _, nd := range nodes {
		total += nd.Handled()
	}
	return total
}

func snapshots(nodes []*Node) []Snapshot {
	out := make([]Snapshot, len(nodes))
	for i, nd := range nodes {
		out[i] = nd.Snapshot()
	}
	return out
}

// TestInstalledIsFixpoint: the ideal state is a fixpoint of maintenance.
// Three rounds after Install change no node's snapshot, and the second
// and third serve the same requests (the first also fills the memos a
// settled round asks less by).
func TestInstalledIsFixpoint(t *testing.T) {
	type size struct {
		n, depth int
		mode     string
	}
	var sizes []size
	for _, n := range []int{16, 128} {
		for depth := 1; depth <= 3; depth++ {
			for _, mode := range []string{RouteClassic, RouteOneHop} {
				sizes = append(sizes, size{n, depth, mode})
			}
		}
	}
	if !testing.Short() {
		for depth := 1; depth <= 3; depth++ {
			sizes = append(sizes, size{1024, depth, RouteClassic})
		}
	}
	for _, sz := range sizes {
		t.Run(fmt.Sprintf("n%d/depth%d/%s", sz.n, sz.depth, sz.mode), func(t *testing.T) {
			t.Parallel()
			dn, nodes := installNodes(t, sz.n, sz.depth, sz.mode)
			if err := Install(nodes); err != nil {
				t.Fatal(err)
			}
			installed := snapshots(nodes)
			var msgs [3]int64
			for r := range msgs {
				msgs[r] = maintainRound(dn, nodes)
				for i, s := range snapshots(nodes) {
					if !reflect.DeepEqual(s, installed[i]) {
						t.Fatalf("round %d moved %s:\n  installed %+v\n  now       %+v", r+1, s.Addr, installed[i], s)
					}
				}
			}
			if msgs[1] != msgs[2] {
				t.Errorf("settled rounds served %d and %d requests", msgs[1], msgs[2])
			}
			t.Logf("requests per node in rounds 1-3: %.2f %.2f %.2f",
				float64(msgs[0])/float64(sz.n), float64(msgs[1])/float64(sz.n), float64(msgs[2])/float64(sz.n))
		})
	}
}

// TestUnheardLandmarkLeavesNoTombstone: a landmark name nobody listens on
// is no member. Every round's landmark walk fails on it, and no route
// table may record it, joined or evicted: a tombstone for it would be
// gossiped forever. So the installed state is a fixpoint from round 1
// with such landmarks too.
func TestUnheardLandmarkLeavesNoTombstone(t *testing.T) {
	dn := NewDirectNet()
	nodes := make([]*Node, 16)
	for i := range nodes {
		nodes[i] = startNode(t, dn, "n"+strconv.Itoa(i), Config{
			Depth: 2, Landmarks: []string{"lm0", "lm1"}, Prober: constProber(5 + 30*(i%2)), RouteMode: RouteOneHop,
		})
	}
	installed := snapshots(install(t, nodes))
	for r := 0; r < 3; r++ {
		maintainRound(dn, nodes)
	}
	for i, s := range snapshots(nodes) {
		for _, ev := range s.Routes {
			if ev.Peer.Addr == "lm0" || ev.Peer.Addr == "lm1" {
				t.Errorf("%s's route table holds %+v", s.Addr, ev)
			}
		}
		if !reflect.DeepEqual(s, installed[i]) {
			t.Errorf("three rounds moved %s:\n  installed %+v\n  now       %+v", s.Addr, installed[i], s)
		}
	}
}

// TestInstalledMatchesJoined: Install reaches the state the protocol
// reaches. The same 128 addresses (32 with -short), joined one per round
// through n0 and settled, end in the installed snapshots; route events,
// whose stamps follow the clock, are compared by member and kind.
func TestInstalledMatchesJoined(t *testing.T) {
	n := 128
	if testing.Short() {
		n = 32
	}
	for depth := 1; depth <= 3; depth++ {
		for _, mode := range []string{RouteClassic, RouteOneHop} {
			t.Run(fmt.Sprintf("depth%d/%s", depth, mode), func(t *testing.T) {
				t.Parallel()
				_, installed := installNodes(t, n, depth, mode)
				if err := Install(installed); err != nil {
					t.Fatal(err)
				}
				dn, joined := installNodes(t, n, depth, mode)
				for i, nd := range joined {
					var err error
					if i == 0 {
						err = nd.CreateNetwork()
					} else if err = nd.Join("n0"); err == nil {
						err = nd.BuildAllFingers()
					}
					if err != nil {
						t.Fatalf("join %s: %v", nd.Addr(), err)
					}
					dn.Clock().Advance(time.Second)
					for _, m := range joined[:i+1] {
						_ = m.StabilizeOnce()
						_ = m.FixFingersOnce(1)
					}
				}
				settle(t, dn, joined)
				want, got := snapshots(installed), snapshots(joined)
				for i := range want {
					want[i].Routes, got[i].Routes = membership(want[i].Routes), membership(got[i].Routes)
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("%s joined and settled:\n  %+v\ninstalled:\n  %+v", want[i].Addr, got[i], want[i])
					}
				}
			})
		}
	}
}

// settle runs maintainRound until a round leaves every snapshot as it
// was, failing the test after 30.
func settle(t *testing.T, dn *DirectNet, nodes []*Node) {
	t.Helper()
	prev := snapshots(nodes)
	for r := 0; r < 30; r++ {
		maintainRound(dn, nodes)
		cur := snapshots(nodes)
		if reflect.DeepEqual(cur, prev) {
			return
		}
		prev = cur
	}
	t.Fatal("no fixpoint in 30 rounds")
}

// membership blanks the stamps of route events.
func membership(evs []wire.RouteEvent) []wire.RouteEvent {
	out := slices.Clone(evs)
	for i := range out {
		out[i].Stamp = 0
	}
	return out
}

// TestInstallRefuses: Install joins only nodes that have not joined, and
// only nodes that agree on depth and successor-list length.
func TestInstallRefuses(t *testing.T) {
	_, nodes := installNodes(t, 4, 2, RouteClassic)
	if err := nodes[0].CreateNetwork(); err != nil {
		t.Fatal(err)
	}
	if err := Install(nodes); err == nil {
		t.Error("Install took a node that had created a network")
	}
	dn := NewDirectNet()
	for i, tweak := range []func(*Config){
		func(cfg *Config) { cfg.Depth = 3 },
		func(cfg *Config) { cfg.SuccListLen = 5 },
	} {
		cfg := Config{Depth: 2, Landmarks: []string{"a"}, Prober: constProber(10)}
		a := startNode(t, dn, "a"+strconv.Itoa(i), cfg)
		tweak(&cfg)
		b := startNode(t, dn, "b"+strconv.Itoa(i), cfg)
		if err := Install([]*Node{a, b}); err == nil {
			t.Errorf("Install took nodes configured %+v and %+v", a.cfg, b.cfg)
		}
	}
}
