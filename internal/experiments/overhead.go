package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/transport"
)

// OverheadRow quantifies HIERAS's extra state and protocol cost at one
// hierarchy depth.
type OverheadRow struct {
	Depth int
	State core.StateStats
	// JoinMsgs is the mean requests served per node join (§3.3 join plus
	// the finger build), measured on live nodes.
	JoinMsgs float64
	// StabilizeMsgsPerNode is the requests served during one maintenance
	// round of every live node (stabilize every ring, repair ring tables,
	// refresh one finger per ring), divided by the node count.
	StabilizeMsgsPerNode float64
}

// OverheadResult is the quantitative overhead analysis (paper §3.4 and the
// future-work item of §6): per-node routing state and join/maintenance
// message costs for Chord (depth 1) and HIERAS (depths 2+).
type OverheadResult struct {
	Nodes int
	Rows  []OverheadRow
}

// overheadLiveNodes caps the population of the live protocol measurement.
// Join cost is averaged over every join with one maintenance round after
// each, so wall time grows with the square of it: 120 nodes keep
// `hieras-bench -only overhead` (depths 1-4) under 30 s on a 2-core box.
const overheadLiveNodes = 120

// Overhead measures state and protocol costs across depths. State
// statistics use the full scenario size (oracle overlay); the protocol
// costs are requests actually served by live transport nodes — a
// churn.Cluster of at most overheadLiveNodes hosts on the same underlay,
// each joining through the first with one maintenance round after every
// join, then one more round measured on its own.
func Overhead(base Scenario, depths []int) (*OverheadResult, error) {
	base = base.withDefaults()
	res := &OverheadResult{Nodes: base.Nodes}
	for _, depth := range depths {
		s := base
		s.Depth = depth
		o, err := BuildOverlay(s)
		if err != nil {
			return nil, fmt.Errorf("depth %d: %w", depth, err)
		}
		row := OverheadRow{Depth: depth, State: o.StateStats()}
		row.JoinMsgs, row.StabilizeMsgsPerNode, err = liveOverhead(o.Network(), s)
		if err != nil {
			return nil, fmt.Errorf("depth %d: %w", depth, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// liveOverhead returns the mean requests served per join and the requests
// one maintenance round costs per node, on a live cluster over net.
func liveOverhead(net *topology.Network, s Scenario) (joinMsgs, roundMsgsPerNode float64, err error) {
	nodes := min(s.Nodes, overheadLiveNodes)
	c, err := churn.NewCluster(net, s.Depth, s.Landmarks, 0, rand.New(rand.NewSource(s.Seed+17)))
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	var joins stats.Online
	for h := 0; h < nodes; h++ {
		var boot *transport.Node
		if h > 0 {
			boot = c.Live()[0]
		}
		before := c.Msgs()
		if err := c.Join(h, boot); err != nil {
			return 0, 0, fmt.Errorf("join %d: %w", h, err)
		}
		if h > 0 {
			joins.Add(float64(c.Msgs() - before))
		}
		c.Round(1)
	}
	before := c.Msgs()
	c.Round(1)
	return joins.Mean(), float64(c.Msgs()-before) / float64(nodes), nil
}

// Table renders the overhead analysis.
func (r *OverheadResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Overhead analysis (%d nodes; depth 1 = plain Chord)", r.Nodes),
		Header: []string{"depth", "finger_slots", "distinct_fingers", "succ_entries",
			"rings", "est_bytes/node", "join_msgs", "stabilize_msgs/node"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprint(row.Depth),
			fmt.Sprint(row.State.FingerEntriesPerNode),
			f1(row.State.DistinctFingersPerNode),
			fmt.Sprint(row.State.SuccessorListEntriesPerNode),
			fmt.Sprint(row.State.Rings),
			f1(row.State.EstBytesPerNode),
			f1(row.JoinMsgs),
			f2(row.StabilizeMsgsPerNode))
	}
	return t
}
