package churn

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/id"
	"repro/internal/replica"
	"repro/internal/transport"
)

// settledCluster joins nodes hosts into a depth-2 classic cluster the
// way the churn study does, one round after each join, then settles it.
func settledCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	c, err := NewCluster(testNet(t, nodes, 9), 2, 4, 0, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for h := 0; h < nodes; h++ {
		var boot *transport.Node
		if h > 0 {
			boot = c.Live()[0]
		}
		if err := c.Join(h, boot); err != nil {
			t.Fatalf("join %d: %v", h, err)
		}
		c.Round(1)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDriverSettles: Settle reaches a fixpoint on both kinds of cluster
// the tree drives — classic nodes on topology hosts (the churn and
// overhead studies) and one-hop nodes with a replicated store, binned on
// coordinates (simcheck's harness).
func TestDriverSettles(t *testing.T) {
	t.Run("classic/topology", func(t *testing.T) {
		c := settledCluster(t, 24)
		if got := len(c.Live()); got != 24 {
			t.Fatalf("%d live nodes, want 24", got)
		}
	})
	t.Run("onehop+kv/coordinates", func(t *testing.T) {
		d := NewDriver()
		defer d.Close()
		addr := func(i int) string { return fmt.Sprintf("n%d", i) }
		const nodes = 8
		for i := 0; i < nodes; i++ {
			n, err := d.Start(addr(i), transport.Config{
				Depth:       2,
				Landmarks:   []string{addr(0), addr(1)},
				Coord:       [2]float64{float64(500 * (i % 2)), float64(i)},
				RouteMode:   transport.RouteOneHop,
				Replication: replica.Options{Factor: 3, WriteQuorum: 2, ReadQuorum: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			switch i {
			case 0:
			case 1: // both landmarks listen before the network is created
				if err = d.Live()[0].CreateNetwork(); err == nil {
					err = n.Join(addr(0))
				}
			default:
				err = n.Join(addr(0))
			}
			if err != nil {
				t.Fatalf("join %s: %v", addr(i), err)
			}
			d.Round(16)
		}
		for k := 0; k < 16; k++ {
			if err := d.Live()[k%nodes].Put(d.Context(), fmt.Sprint("k", k), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Settle(); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 16; k++ {
			if _, err := d.Live()[(k+3)%nodes].Get(d.Context(), fmt.Sprint("k", k)); err != nil {
				t.Errorf("get k%d on a settled cluster: %v", k, err)
			}
		}
	})
}

// TestDriverRoundAddsNoMessages: on a settled cluster, one driver Round
// serves exactly the requests that each node's StabilizeOnce and
// FixFingersOnce serve when called on their own.
func TestDriverRoundAddsNoMessages(t *testing.T) {
	c := settledCluster(t, 24)
	before := c.Msgs()
	for _, n := range c.Live() {
		_ = n.StabilizeOnce()
		_ = n.FixFingersOnce(id.Bits)
	}
	own := c.Msgs() - before
	before = c.Msgs()
	c.Round(id.Bits)
	if got := c.Msgs() - before; got != own || own == 0 {
		t.Fatalf("a driver round served %d requests, the nodes' own calls %d", got, own)
	}
}
