// Command hieras-sim runs a single HIERAS-vs-Chord simulation and prints
// the comparison, optionally writing a per-request CSV trace.
//
// The comparison runs on the parallel batch query engine: -workers bounds
// the fan-out (summaries are byte-identical for a fixed seed at any
// worker count), -progress streams partial summaries while long runs are
// in flight, and -metrics dumps the pool's queue/throughput gauges along
// with the overlay's counters.
//
// With -check the binary instead runs the property-based invariant
// harness (internal/simcheck): -check-runs seeded random operation
// programs against in-process multi-layer clusters, starting at -seed.
// On a violation it prints the shrunk, replayable counterexample and
// exits nonzero.
//
// Usage:
//
//	hieras-sim -model ts -nodes 1000 -landmarks 4 -depth 2 -requests 10000
//	hieras-sim -nodes 400 -trace out.csv
//	hieras-sim -requests 200000 -workers 8 -progress
//	hieras-sim -check -check-runs 20 -seed 1
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/simcheck"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hieras-sim: ")

	var (
		model     = flag.String("model", "ts", "topology model: ts, inet or brite")
		nodes     = flag.Int("nodes", 1000, "number of overlay peers")
		landmarks = flag.Int("landmarks", 4, "number of landmark nodes")
		depth     = flag.Int("depth", 2, "hierarchy depth (1 = plain Chord only)")
		requests  = flag.Int("requests", 10000, "routing requests")
		seed      = flag.Int64("seed", 1, "random seed")
		routers   = flag.Int("routers", 0, "router count for inet/brite (0 = auto)")
		workers   = flag.Int("workers", 0, "batch-engine workers (0 = all CPUs)")
		progress  = flag.Bool("progress", false, "stream progressive summaries every ~10% of the run")
		traceOut  = flag.String("trace", "", "write a per-request CSV trace to this file")
		dumpMet   = flag.Bool("metrics", false, "dump the overlay's and pool's Prometheus-text metrics after the run")
		check     = flag.Bool("check", false, "run the property-based invariant harness instead of a simulation")
		checkRuns = flag.Int("check-runs", 5, "number of seeded programs to check with -check (seeds -seed..)")
		checkOps  = flag.Int("check-ops", 0, "operations per checked program (0 = simcheck default)")
		checkSlot = flag.Int("check-slots", 0, "cluster slots per checked program (0 = simcheck default)")
	)
	flag.Parse()

	if *check {
		os.Exit(runCheck(*seed, *checkRuns, *checkOps, *checkSlot, *depth))
	}

	s := experiments.Scenario{
		Model:     *model,
		Nodes:     *nodes,
		Landmarks: *landmarks,
		Depth:     *depth,
		Requests:  *requests,
		Seed:      *seed,
		Routers:   *routers,
		Workers:   *workers,
	}
	if *dumpMet {
		s.Metrics = metrics.NewRegistry()
	}
	fmt.Printf("building %s underlay with %d peers (depth %d, %d landmarks, seed %d)...\n",
		s.Model, s.Nodes, s.Depth, s.Landmarks, s.Seed)
	o, err := experiments.BuildOverlay(s)
	if err != nil {
		log.Fatal(err)
	}
	for _, ls := range o.LayerStats() {
		fmt.Printf("layer %d: %d rings, sizes %d..%d (mean %.1f)\n",
			ls.Layer, ls.Rings, ls.MinSize, ls.MaxSize, ls.MeanSize)
	}

	var onProgress func(experiments.Progress)
	if *progress {
		lastDecile := 0
		onProgress = func(p experiments.Progress) {
			if decile := 10 * p.Requests / p.Total; decile > lastDecile {
				lastDecile = decile
				fmt.Printf("  %3d%% (%d/%d): hieras %.2f ms vs chord %.2f ms (ratio %.3f)\n",
					100*p.Requests/p.Total, p.Requests, p.Total,
					p.HierasLatencyMs, p.ChordLatencyMs, p.LatencyRatio)
			}
		}
		fmt.Printf("\nrouting %d requests on %d workers...\n", s.Requests, experiments.NewPool(*workers).Workers())
	}
	cmp, err := experiments.CompareStream(context.Background(), o, s, onProgress)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-28s %10s %10s\n", "metric", "chord", "hieras")
	fmt.Printf("%-28s %10.4f %10.4f\n", "avg hops", cmp.Chord.Hops.Mean(), cmp.Hieras.Hops.Mean())
	fmt.Printf("%-28s %10.2f %10.2f\n", "avg latency (ms)", cmp.Chord.Latency.Mean(), cmp.Hieras.Latency.Mean())
	fmt.Printf("%-28s %10.2f %10.2f\n", "p50 latency (ms)", cmp.ChordLatQ.Quantile(0.5), cmp.HierasLatQ.Quantile(0.5))
	fmt.Printf("%-28s %10.2f %10.2f\n", "p99 latency (ms)", cmp.ChordLatQ.Quantile(0.99), cmp.HierasLatQ.Quantile(0.99))
	fmt.Printf("%-28s %10s %9.2f%%\n", "latency ratio", "", 100*cmp.LatencyRatio())
	fmt.Printf("%-28s %10s %9.2f%%\n", "hop overhead", "", 100*(cmp.HopRatio()-1))
	fmt.Printf("%-28s %10s %9.2f%%\n", "lower-layer hop share", "", 100*cmp.LowerHopShare())
	fmt.Printf("%-28s %10.2f %10.2f\n", "mean link delay (ms)", cmp.TopLink.Mean(), cmp.LowerLink.Mean())

	if *traceOut != "" {
		if err := writeTrace(*traceOut, s, o); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntrace written to %s\n", *traceOut)
	}
	if *dumpMet {
		fmt.Println("\n# metrics")
		if _, err := s.Metrics.WriteTo(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}

// runCheck drives the simcheck harness over a batch of consecutive
// seeds and reports the first violation's shrunk counterexample.
func runCheck(seed int64, runs, ops, slots, depth int) int {
	fmt.Printf("checking %d seeded programs (seeds %d..%d, depth %d)...\n",
		runs, seed, seed+int64(runs)-1, depth)
	status := 0
	for i := 0; i < runs; i++ {
		cfg := simcheck.Config{Seed: seed + int64(i), Ops: ops, Slots: slots, Depth: depth}
		if f := simcheck.Run(cfg); f != nil {
			fmt.Printf("seed %d: FAIL\n%v\n", cfg.Seed, f)
			status = 1
		} else {
			fmt.Printf("seed %d: ok\n", cfg.Seed)
		}
	}
	if status == 0 {
		fmt.Println("all programs passed")
	}
	return status
}

// writeTrace replays the scenario's request stream and records each HIERAS
// route.
func writeTrace(path string, s experiments.Scenario, o *core.Overlay) error {
	gen, err := workload.NewUniform(s.Seed+1, o.N())
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := trace.NewWriter(f)
	for i, req := range gen.Batch(s.Requests) {
		if err := w.Write(trace.FromRoute(i, o.Route(req.Origin, req.Key))); err != nil {
			return err
		}
	}
	return w.Flush()
}
