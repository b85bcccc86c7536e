// Livenet: a real HIERAS deployment in one process. Twelve TCP nodes on
// localhost form a two-layer overlay; virtual coordinates place them in
// two "continents" so the distributed binning scheme builds one ring per
// continent. The demo runs the full §3.3 join protocol, hierarchical
// lookups and put/get over the wire.
//
// Run with: go run ./examples/livenet
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/transport"
)

func main() {
	log.SetFlags(0)

	// Two clusters on the virtual latency plane (coordinates are
	// milliseconds): "west" near the origin, "east" 500 ms away.
	coords := [][2]float64{
		{0, 0}, {510, 505},
		{5, 8}, {515, 500}, {12, 3}, {504, 512},
		{8, 14}, {520, 507}, {3, 6}, {508, 515},
		{10, 10}, {512, 503},
	}
	nodes := make([]*transport.Node, 0, len(coords))
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()

	// Start everyone; the first two nodes double as landmarks.
	var landmarks []string
	for i, c := range coords {
		n, err := transport.Start("127.0.0.1:0", transport.Config{
			Depth:     2,
			Coord:     c,
			Landmarks: landmarks, // empty for the first two; set below
		})
		if err != nil {
			log.Fatal(err)
		}
		nodes = append(nodes, n)
		if i == 1 {
			landmarks = []string{nodes[0].Addr(), nodes[1].Addr()}
		}
	}
	rejoin := func() error {
		if err := nodesWithLandmarks(nodes[0], landmarks).CreateNetwork(); err != nil {
			return err
		}
		for i := 1; i < len(nodes); i++ {
			if err := nodesWithLandmarks(nodes[i], landmarks).Join(nodes[0].Addr()); err != nil {
				return fmt.Errorf("node %d: %w", i, err)
			}
			for r := 0; r < 3; r++ {
				for j := 0; j <= i; j++ {
					if err := nodes[j].StabilizeOnce(); err != nil {
						return err
					}
				}
			}
		}
		for _, n := range nodes {
			if err := n.BuildAllFingers(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rejoin(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d live nodes joined; binning result:\n", len(nodes))
	for i, n := range nodes {
		side := "west"
		if i%2 == 1 {
			side = "east"
		}
		fmt.Printf("  node %s at %s (%s) -> ring %q\n",
			n.ID().Short(), n.Addr(), side, n.RingNames()[0])
	}

	// Hierarchical lookups over TCP.
	fmt.Println("\nlookups from node 0:")
	for _, key := range []string{"song.mp3", "paper.pdf", "trace.csv"} {
		var tr transport.Trace // the calls the lookup sent
		res, err := nodes[0].Lookup(transport.WithTrace(context.Background(), &tr), transport.LiveKeyID(key))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s -> %s (%d hops: %d global, %d in-ring)\n",
			key, res.Owner.Addr, res.Hops, res.LayerHops[0], res.LayerHops[1])
		for _, c := range tr.Calls {
			fmt.Printf("      %s to %s, layer %d, %v\n", c.Type, c.Addr, c.Layer, c.RTT)
		}
	}

	// Put/Get across the wire.
	if err := nodes[3].Put(context.Background(), "greeting", []byte("hello from the east")); err != nil {
		log.Fatal(err)
	}
	v, err := nodes[8].Get(context.Background(), "greeting")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nnode 8 reads %q published by node 3: %q\n", "greeting", v)
}

// nodesWithLandmarks injects the landmark list into a node started before
// the landmarks were known (the chicken-and-egg of the first two nodes).
func nodesWithLandmarks(n *transport.Node, landmarks []string) *transport.Node {
	n.SetLandmarks(landmarks)
	return n
}
