// Command hieras-bench runs the paper's full evaluation suite — every
// table and figure of §4 plus the overhead analysis — and prints the
// results as aligned text tables (EXPERIMENTS.md is generated from this
// output).
//
// By default the suite runs at 10% of paper scale so it completes in a
// few minutes on a laptop; -paper restores the original 1000-10000 node /
// 100000-request configurations.
//
// Usage:
//
//	hieras-bench                  # scaled-down full suite
//	hieras-bench -scale 0.05      # even smaller
//	hieras-bench -paper           # full paper scale (slow)
//	hieras-bench -only fig6,fig7  # subset
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/metrics"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hieras-bench: ")

	var (
		scale   = flag.Float64("scale", 0.1, "scale factor on the paper's node counts")
		paper   = flag.Bool("paper", false, "run at full paper scale (overrides -scale)")
		seed    = flag.Int64("seed", 2003, "base random seed")
		workers = flag.Int("workers", 0, "batch-engine workers per comparison (0 = all CPUs)")
		only    = flag.String("only", "", "comma-separated subset: t1,t2,t3,fig2..fig9,overhead,algos,can,resilience,cache")
		dumpMet = flag.Bool("metrics", false, "dump the cache study's Prometheus-text metrics after the run")
	)
	flag.Parse()

	sc := *scale
	requests := 10000
	if *paper {
		sc = 1.0
		requests = 100000
	}
	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}
	run := func(k string) bool { return len(want) == 0 || want[k] }
	out := os.Stdout

	scaleInt := func(n int) int {
		v := int(float64(n) * sc)
		if v < 50 {
			v = 50
		}
		return v
	}
	base := experiments.Scenario{
		Nodes:    scaleInt(10000),
		Requests: requests,
		Seed:     *seed,
		Workers:  *workers,
	}

	if run("t1") {
		tbl, err := experiments.Table1()
		fatalIf(err)
		tbl.Render(out)
		fmt.Fprintln(out)
	}
	if run("t2") {
		tbl, err := experiments.Table2(experiments.Scenario{Nodes: scaleInt(1000), Seed: *seed, Workers: *workers})
		fatalIf(err)
		tbl.Render(out)
		fmt.Fprintln(out)
	}
	if run("t3") {
		tbl, err := experiments.Table3(experiments.Scenario{Nodes: scaleInt(800), Seed: *seed, Workers: *workers})
		fatalIf(err)
		tbl.Render(out)
		fmt.Fprintln(out)
	}
	if run("fig2") || run("fig3") {
		fmt.Fprintf(out, "[running size sweep at scale %.2f, %d requests per point]\n", sc, requests)
		res, err := experiments.Figures2and3(base, experiments.DefaultSizes(sc))
		fatalIf(err)
		res.HopsTable().Render(out)
		fmt.Fprintln(out)
		res.LatencyTable().Render(out)
		fmt.Fprintln(out)
	}
	if run("fig4") || run("fig5") {
		res, err := experiments.Figures4and5(base)
		fatalIf(err)
		res.PDFTable().Render(out)
		fmt.Fprintln(out)
		res.CDFTable().Render(out)
		fmt.Fprintln(out)
		res.SummaryTable().Render(out)
		fmt.Fprintln(out)
	}
	if run("fig6") || run("fig7") {
		res, err := experiments.Figures6and7(base, []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
		fatalIf(err)
		res.HopsTable().Render(out)
		fmt.Fprintln(out)
		res.LatencyTable().Render(out)
		fmt.Fprintln(out)
	}
	if run("fig8") || run("fig9") {
		sizes := []int{scaleInt(5000), scaleInt(6000), scaleInt(7000), scaleInt(8000), scaleInt(9000), scaleInt(10000)}
		db := base
		db.Landmarks = 6
		res, err := experiments.Figures8and9(db, sizes, []int{2, 3, 4})
		fatalIf(err)
		res.HopsTable().Render(out)
		fmt.Fprintln(out)
		res.LatencyTable().Render(out)
		fmt.Fprintln(out)
	}
	if run("overhead") {
		res, err := experiments.Overhead(experiments.Scenario{
			Nodes: scaleInt(1000), Seed: *seed, Requests: 100, Workers: *workers,
		}, []int{1, 2, 3, 4})
		fatalIf(err)
		res.Table().Render(out)
		fmt.Fprintln(out)
	}
	if run("algos") {
		res, err := experiments.CompareAlgorithms(experiments.Scenario{
			Nodes: scaleInt(3000), Requests: requests, Seed: *seed, Workers: *workers,
		})
		fatalIf(err)
		res.Table().Render(out)
		fmt.Fprintln(out)
	}
	if run("can") {
		res, err := experiments.CompareCAN(experiments.Scenario{
			Nodes: scaleInt(4000), Requests: requests, Seed: *seed, Workers: *workers,
		})
		fatalIf(err)
		res.Table().Render(out)
		fmt.Fprintln(out)
	}
	if run("resilience") {
		res, err := experiments.FailureResilience(experiments.Scenario{
			Nodes: scaleInt(3000), Requests: requests / 5, Seed: *seed, Workers: *workers,
		}, []float64{0, 0.1, 0.2, 0.3, 0.4})
		fatalIf(err)
		res.Table().Render(out)
		fmt.Fprintln(out)
	}
	if run("cache") {
		sc := experiments.Scenario{
			Nodes: scaleInt(2000), Requests: requests, Seed: *seed, Workers: *workers,
		}
		if *dumpMet {
			sc.Metrics = metrics.NewRegistry()
		}
		res, err := experiments.CacheStudy(sc, []int{16, 64, 256, 1024}, cache.CacheAlongPath)
		fatalIf(err)
		res.Table().Render(out)
		if *dumpMet {
			fmt.Fprintln(out, "\n# metrics")
			if _, err := sc.Metrics.WriteTo(out); err != nil {
				fatalIf(err)
			}
		}
	}
}

func fatalIf(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
