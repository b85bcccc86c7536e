// Command perf is the repo's layered performance harness: five
// workloads, the same end-to-end metrics on each, and — from a separate
// traced run — a per-layer table. It measures every layer from outside,
// by timing calls into public functions and by wrapping the seams
// transport.Config already exposes. See README.md in this directory.
//
//	go run ./bench/perf                          # all workloads, end-to-end table
//	go run ./bench/perf -workload kv-get -trace spans.jsonl
//	go run ./bench/perf -repeat 5                # two interleaved sets of 5, checked against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
)

// specs are the five workloads. Op counts are sized so one trial takes
// about 25 ms on this box (maintain's op is a whole round of about 100 ms).
var specs = []spec{
	{
		name: "sim-route", perSec: 40, ops: 14000, batch: 64, spanHint: 1, build: buildSim,
		why: "the paper's own experiment (1000-node TS overlay, uniform lookups): only id/chord/core/topology run, so it bypasses every live-stack change",
	},
	{
		name: "lookup-walk", perSec: 40, ops: 600, batch: 1, spanHint: 12, build: buildWalk,
		why: "classic lookups over MemNet: about 4 sequential find_closest RPCs per op, so per-message cost in wire and transport's walk dominates; no kernel, KV or route table",
	},
	{
		name: "kv-get", perSec: 40, ops: 280, batch: 1, spanHint: 12, build: buildKV(false),
		why: "quorum reads (r=3 R=2) over loopback TCP with one-hop routing: what an application reading a stable cluster pays, real socket path included",
	},
	{
		name: "kv-put", perSec: 40, ops: 180, batch: 1, spanHint: 14, build: buildKV(true),
		why: "quorum writes (r=3 W=2) on the same recipe: 3-way fan-out of value-carrying frames, so a read-side gain that costs writes shows here",
	},
	{
		name: "maintain", perSec: 8, ops: 1, batch: 1, spanHint: 40000, build: buildMaintain,
		why: "idle-cluster maintenance rounds (stabilise, ring-table repair, route gossip, anti-entropy over 1024 keys): the background bill with no foreground traffic",
	},
}

// perLayer lists every per-layer metric a traced run reports; a layer a
// workload's world does not contain reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"client.p99_ms", "ms", "lower", 0},
		{"client.best_ops_per_s", "1/s", "higher", 0},
		{"trace.overhead_ratio", "ratio", "higher", 0},
		{"transport.rpc_p50_us", "us", "lower", 0},
		{"transport.round_trips_per_op", "count", "lower", 0},
		{"transport.origin_self_us", "us", "lower", 0},
		{"transport.converge_rounds", "count", "lower", 0},
		{"wire.bytes_per_rpc", "B", "lower", 0},
		{"wire.dials_per_op", "count", "lower", 0},
		{"wire.setup_dials", "count", "lower", 0},
		{"wire.retries_per_op", "count", "lower", 0},
		{"routes.onehop_hit_ratio", "ratio", "higher", 0},
		{"routes.gossip_bytes_per_round", "B", "lower", 0},
		{"routes.gossip_share", "ratio", "lower", 0},
		{"replica.antientropy_bytes_per_round", "B", "lower", 0},
	}
	for _, t := range rpcTypeNames {
		defs = append(defs, metricDef{"transport.rpcs_per_op." + t, "count", "lower", 0})
	}
	for _, p := range maintainParts {
		defs = append(defs, metricDef{p + "_ms", "ms", "lower", 0}, metricDef{p + "_rpcs", "count", "lower", 0})
	}
	ns := []string{
		"id.between_ns", "id.add_pow2_ns", "id.hash_string_ns", "chord.lookup_ns",
		"core.route_ns", "core.chord_route_ns",
		"facade.chord_lookup_ns", "facade.cached_lookup_ns", "facade.onehop_lookup_ns",
		"cache.lookup_ns", "kv.put_ns", "kv.get_ns",
		"wire.pool.call_ns.mem", "wire.pool.call_ns.tcp",
		"routes.owner_ns", "routes.apply_all_ns", "routes.diff_ns",
		"replica.engine.apply_ns", "replica.engine.get_ns", "replica.engine.range_digest_ns",
	}
	for _, n := range ns {
		defs = append(defs, metricDef{n, "ns", "lower", 0})
	}
	defs = append(defs,
		metricDef{"core.route_allocs", "count", "lower", 0},
		metricDef{"core.lower_hop_share", "ratio", "higher", 0},
		metricDef{"core.sim_latency_ms", "ms", "lower", 0},
		metricDef{"core.latency_ratio", "ratio", "lower", 0},
		metricDef{"experiments.compare_lookups_per_s", "1/s", "higher", 0},
		metricDef{"cache.hit_ratio", "ratio", "higher", 0},
		metricDef{"wire.pool.call_allocs", "count", "lower", 0},
	)
	for _, m := range []string{"find_closest", "store_put", "route_gossip", "digest"} {
		defs = append(defs,
			metricDef{"wire.codec.append_ns." + m, "ns", "lower", 0},
			metricDef{"wire.codec.decode_ns." + m, "ns", "lower", 0},
			metricDef{"wire.codec.decode_allocs." + m, "count", "lower", 0},
			metricDef{"wire.codec.frame_bytes." + m, "B", "lower", 0},
		)
	}
	return defs
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// resultLine is the last line a single-workload run prints: the shape
// BENCHMARK.json's driver reads.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// table returns the metrics the run measured with their definitions:
// per-layer for a traced run, end-to-end otherwise.
func (r *result) table() ([]metricDef, map[string]float64) {
	if r.PerLayer != nil {
		return perLayer, r.PerLayer
	}
	return endToEnd, r.EndToEnd
}

func (r *result) line() resultLine {
	defs, vals := r.table()
	out := resultLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
	}
	return out
}

// printTable prints every metric of a run by name, with its unit. The
// end-to-end table ends with fail_ratio, the ninth end-to-end metric: it
// has an absolute bound of 0 (any wrong answer fails the run), so it is
// not among the relative bounds of BENCHMARK.json and reaches the driver
// as attempted and failed.
func printTable(w io.Writer, r *result) {
	fmt.Fprintf(w, "%s  seed=%d  trials=%d  window=%.1fs  set-ups(s)=%.3f  attempted=%d  failed=%d\n",
		r.Workload, r.Seed, r.Trials, r.WindowS, r.SetupsS, r.Attempted, r.Failed)
	defs, vals := r.table()
	for _, d := range defs {
		if v, ok := vals[d.Name]; ok {
			fmt.Fprintf(w, "  %-44s %18.10g %s\n", d.Name, v, d.Unit)
		}
	}
	if r.PerLayer == nil {
		fmt.Fprintf(w, "  %-44s %18.10g %s\n", "fail_ratio", r.FailRatio, "ratio")
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "run one workload (default: all): "+workloadNames())
	fs.Int64Var(&cfg.seed, "seed", cfg.seed, "seed the inputs (origins, keys, values) are generated from")
	fs.IntVar(&cfg.seconds, "seconds", cfg.seconds, "nominal measured window in seconds: 40 trials of about 25 ms for each")
	trace := fs.String("trace", "0", "FILE = traced run: print the per-layer table instead and write the spans to FILE as JSON lines; 1 = the same without the file; 0 = untraced")
	fs.IntVar(&cfg.portBase, "port-base", cfg.portBase, "first of the fixed loopback TCP ports the kv workloads listen on")
	fs.Float64Var(&cfg.scale, "scale", cfg.scale, "multiply op counts (never node or key counts)")
	asJSON := fs.Bool("json", false, "print one JSON document with every result instead of tables")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	repeat := fs.Int("repeat", 0, "run the suite as two interleaved sets of N and check they agree within the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.seconds < 1 {
		cfg.seconds = 1
	}
	traceOut := ""
	if cfg.traced = *trace != "0"; cfg.traced {
		cfg.setups = 1
		if *trace != "1" {
			traceOut = *trace
		}
	}
	todo := specs
	if *workloadName != "" {
		s, ok := specByName(*workloadName)
		if !ok {
			fmt.Fprintf(stderr, "perf: unknown workload %q (have %s)\n", *workloadName, workloadNames())
			return 2
		}
		todo = []spec{s}
	}
	if *repeat > 0 {
		return runRepeat(todo, cfg, *repeat, stdout, stderr)
	}

	// A DHT client waits for its reply, so the load is one closed-loop
	// client; and the whole process keeps to one core, so that a reply
	// never waits for this VM to wake a second, halted one.
	runtime.GOMAXPROCS(1)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "perf:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "perf:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	code := 0
	var results []*result
	for _, s := range todo {
		r, err := runWorkload(s, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "perf:", err)
			return 1
		}
		results = append(results, r)
		if r.Failed > 0 {
			code = 1
		}
		if !*asJSON {
			printTable(stdout, r)
		}
		if traceOut != "" {
			path := traceOut
			if len(todo) > 1 {
				path = strings.TrimSuffix(path, ".jsonl") + "." + s.name + ".jsonl"
			}
			if err := r.spans.writeSpans(path); err != nil {
				fmt.Fprintln(stderr, "perf:", err)
				return 1
			}
		}
		r.spans = nil
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err == nil {
			runtime.GC()
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "perf:", err)
			return 1
		}
	}
	enc := json.NewEncoder(stdout)
	switch {
	case *asJSON:
		enc.SetIndent("", "  ")
		_ = enc.Encode(results)
	case len(results) == 1:
		_ = enc.Encode(results[0].line())
	}
	return code
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return strings.Join(names, ", ")
}
