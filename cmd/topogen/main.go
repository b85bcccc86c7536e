// Command topogen generates an underlay topology and prints its
// statistics, the latency structure the HIERAS binning scheme relies on,
// and (optionally) the resulting ring population.
//
// Usage:
//
//	topogen -model ts -nodes 1000
//	topogen -model brite -routers 512 -rings
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"repro/internal/experiments"
	"repro/internal/topology"
	"repro/internal/topology/brite"
	"repro/internal/topology/inet"
	"repro/internal/topology/transitstub"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("topogen: ")

	var (
		model   = flag.String("model", "ts", "topology model: ts, inet or brite")
		nodes   = flag.Int("nodes", 1000, "overlay hosts (sizes the ts underlay)")
		routers = flag.Int("routers", 512, "router count for inet/brite")
		seed    = flag.Int64("seed", 1, "random seed")
		rings   = flag.Bool("rings", false, "also print the ring population for a default overlay")
		dot     = flag.String("dot", "", "write the underlay as Graphviz DOT to this file")
	)
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	var u *topology.Underlay
	switch *model {
	case "ts":
		m, err := transitstub.Generate(transitstub.DefaultConfig(*nodes), rng)
		if err != nil {
			log.Fatal(err)
		}
		u = &topology.Underlay{Graph: m.G, Model: m, HostCandidates: m.StubRouters}
		fmt.Printf("transit-stub: %d transit routers, %d stub domains, %d stub routers\n",
			len(m.TransitIdx), m.StubDomains(), len(m.StubRouters))
	case "inet":
		var err error
		u, err = inet.Generate(inet.Config{Routers: *routers}, rng)
		if err != nil {
			log.Fatal(err)
		}
	case "brite":
		var err error
		u, err = brite.Generate(brite.Config{Routers: *routers}, rng)
		if err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown model %q", *model)
	}

	s := topology.ComputeStats(u.Graph)
	fmt.Printf("routers:   %d (%d transit, %d stub, %d plain)\n", s.Nodes, s.Transit, s.Stub, s.Plain)
	fmt.Printf("links:     %d (delay %.1f..%.1f ms, mean %.1f)\n", s.Edges, s.MinDelay, s.MaxDelay, s.MeanDelay)
	fmt.Printf("degree:    %d..%d (mean %.2f)\n", s.MinDegree, s.MaxDegree, s.MeanDegree)
	fmt.Printf("connected: %v\n", s.Connected)

	// Sample the end-to-end latency distribution between overlay hosts.
	net, err := topology.Attach(u.Model, u.Graph, topology.AttachOptions{
		Hosts: *nodes, Routers: u.HostCandidates, Spread: true,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}
	var sum, min, max float64
	min = 1e18
	const samples = 5000
	for i := 0; i < samples; i++ {
		a, b := rng.Intn(net.Hosts()), rng.Intn(net.Hosts())
		if a == b {
			continue
		}
		l := net.Latency(a, b)
		sum += l
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	fmt.Printf("host-pair latency: %.1f..%.1f ms (mean %.1f over %d samples)\n",
		min, max, sum/samples, samples)

	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			log.Fatal(err)
		}
		if err := topology.WriteDOT(f, u.Graph, *model); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("dot graph written to %s\n", *dot)
	}

	if *rings {
		tbl, err := experiments.RingStatsTable(experiments.Scenario{
			Model: *model, Nodes: *nodes, Seed: *seed, Routers: *routers,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		tbl.Render(os.Stdout)
	}
}
