package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"

	"repro/internal/lint/leakcheck"
)

// TestMain installs the runtime leak gate: the harness must close every
// node, pool and listener it starts.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// tinyConfig shrinks every world (8 nodes, 20 ops a trial, one nominal
// second of trials) without changing any code path.
func tinyConfig() config {
	cfg := defaultConfig()
	cfg.seed, cfg.seconds, cfg.setups = 7, 1, 1
	cfg.nodes, cfg.simNodes, cfg.keys, cfg.ops = 8, 300, 96, 20
	cfg.microTime = time.Millisecond
	return cfg
}

// freePortBase finds a run of free loopback ports for the test's TCP
// clusters. (The benchmark itself never relocates: its ports are fixed.)
func freePortBase(t *testing.T, n int) int {
	t.Helper()
bases:
	for base := 25100; base < 25100+50*n; base += n {
		var held []net.Listener
		for i := 0; i < n; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(base+i))
			if err != nil {
				for _, h := range held {
					_ = h.Close()
				}
				continue bases
			}
			held = append(held, ln)
		}
		for _, h := range held {
			_ = h.Close()
		}
		return base
	}
	t.Skip("no free run of loopback ports")
	return 0
}

func mustRun(t *testing.T, s spec, cfg config) *result {
	t.Helper()
	if s.name == "maintain" {
		cfg.ops, cfg.keys = 1, 32 // an op is a whole cluster round, with a lookup per key
	}
	r, err := runWorkload(s, cfg)
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	return r
}

func TestEveryWorkloadEndToEnd(t *testing.T) {
	leakcheck.Watchdog(t, time.Minute)
	// The workloads run side by side (the assertions are on counts, not
	// on time), each TCP cluster on its own run of ports.
	base := freePortBase(t, len(specs)*tinyConfig().nodes)
	for i, s := range specs {
		i, s := i, s
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			cfg := tinyConfig()
			cfg.portBase = base + i*cfg.nodes
			everyWorkload(t, s, cfg)
		})
	}
}

func everyWorkload(t *testing.T, s spec, cfg config) {
	{
		a := mustRun(t, s, cfg)
		// The second run of the same seed has one wrong answer planted in
		// what the verifier expects: the program does the same work, so the
		// counts must not move, and the verifier must notice.
		cfg.plantWrong = true
		b := mustRun(t, s, cfg)
		cfg.plantWrong = false
		if b.Failed == 0 || b.FailRatio <= 0 || b.line().Correct {
			t.Errorf("%s: a planted wrong answer left fail_ratio at %v", s.name, b.FailRatio)
		}
		if a.Failed != 0 || a.Attempted == 0 {
			t.Errorf("%s: attempted %d failed %d", s.name, a.Attempted, a.Failed)
		}
		line := a.line()
		if len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: result line has %d metrics, want %d", s.name, len(line.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			v, ok := a.EndToEnd[d.Name]
			if !ok || !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v (present %v), want a positive number", s.name, d.Name, v, ok)
			}
			if line.Metrics[d.Name].Unit != d.Unit {
				t.Errorf("%s: %s unit %q, want %q", s.name, d.Name, line.Metrics[d.Name].Unit, d.Unit)
			}
		}
		// Counts are exact: the same seed gives the same bits, TCP included.
		for _, m := range []string{"msgs_per_op", "wire_bytes_per_op"} {
			if a.EndToEnd[m] != b.EndToEnd[m] {
				t.Errorf("%s: %s differs between two same-seed runs: %v vs %v", s.name, m, a.EndToEnd[m], b.EndToEnd[m])
			}
		}
		// The inputs really come from the seed: another seed moves the counts.
		cfg.seed++
		c := mustRun(t, s, cfg)
		if c.EndToEnd["msgs_per_op"] == a.EndToEnd["msgs_per_op"] && c.EndToEnd["wire_bytes_per_op"] == a.EndToEnd["wire_bytes_per_op"] {
			t.Errorf("%s: msgs_per_op %v and wire_bytes_per_op %v are the same under another seed", s.name, c.EndToEnd["msgs_per_op"], c.EndToEnd["wire_bytes_per_op"])
		}
		cfg.seed--
		checkTraced(t, s, cfg, a)
	}
}

// checkTraced makes the traced run of the same inputs and checks that
// the per-layer table is complete and accounts for every message the
// untraced run counted.
func checkTraced(t *testing.T, s spec, cfg config, plain *result) {
	t.Helper()
	// Twice the window: each input set runs once untraced, once traced,
	// so the traced trials see exactly the plain run's ops.
	cfg.traced, cfg.seconds = true, 2*cfg.seconds
	tr := mustRun(t, s, cfg)
	if tr.Failed != 0 {
		t.Errorf("%s: traced run failed %d ops", s.name, tr.Failed)
	}
	line := tr.line()
	for _, d := range perLayer {
		if _, ok := line.Metrics[d.Name]; !ok {
			t.Errorf("%s: traced result line lacks %s", s.name, d.Name)
		}
	}
	if r := tr.PerLayer["trace.overhead_ratio"]; !(r > 0) {
		t.Errorf("%s: trace.overhead_ratio = %v", s.name, r)
	}
	if s.name == "lookup-walk" {
		checkSpanFile(t, tr.spans, cfg.ops*cfg.seconds*s.perSec/2)
	}
	if s.name == "sim-route" {
		if tr.PerLayer["core.route_ns"] <= 0 || tr.PerLayer["core.latency_ratio"] <= 0 {
			t.Errorf("sim-route: core layer not timed: %v", tr.PerLayer)
		}
		return
	}
	want := plain.EndToEnd["msgs_per_op"]
	var byType float64
	for _, name := range rpcTypeNames {
		byType += tr.PerLayer["transport.rpcs_per_op."+name]
	}
	if math.Abs(byType-want) > 1e-9*want {
		t.Errorf("%s: sum of transport.rpcs_per_op.* = %v, untraced msgs_per_op = %v", s.name, byType, want)
	}
	if s.name == "maintain" {
		var parts float64
		for _, p := range maintainParts {
			parts += tr.PerLayer[p+"_rpcs"]
		}
		if math.Abs(parts-want) > 1e-9*want {
			t.Errorf("maintain: the four parts made %v RPCs a round, the untraced round %v", parts, want)
		}
	}
}

// checkSpanFile writes the traced run's spans out and reads them back:
// one client span per traced op, every rpc span hanging from one.
func checkSpanFile(t *testing.T, tr *tracer, tracedOps int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.writeSpans(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type spanLine struct {
		ID, Parent uint32
		Kind, Type string
		StartNs    int64 `json:"start_ns"`
		EndNs      int64 `json:"end_ns"`
	}
	var spans []spanLine
	ops := map[uint32]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var sp spanLine
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		if sp.EndNs < sp.StartNs {
			t.Errorf("span %d ends before it starts", sp.ID)
		}
		if sp.Kind == "client" {
			ops[sp.ID] = true
		}
		spans = append(spans, sp)
	}
	if len(ops) != tracedOps || len(spans) < 2*tracedOps {
		t.Errorf("%d client spans of %d spans, want %d client spans and at least one rpc each", len(ops), len(spans), tracedOps)
	}
	for _, sp := range spans {
		if sp.Kind == "rpc" && (!ops[sp.Parent] || sp.Type != "find_closest") {
			t.Fatalf("rpc span %+v: parent is no client span, or a classic lookup sent something else than find_closest", sp)
		}
	}
}

var update = flag.Bool("update", false, "rewrite BENCHMARK.json from the harness's tables")

// benchmarkJSON renders BENCHMARK.json from the harness's own tables.
func benchmarkJSON() []byte {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type boundedJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []boundedJSON  `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{Command: []string{"go", "run", "./bench/perf"}, Paths: []string{"bench/perf"}, RunSeconds: runSeconds}
	for _, s := range specs {
		doc.Workloads = append(doc.Workloads, workloadJSON{s.name, s.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, boundedJSON{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerJSON{d.Name, d.Unit, d.Better})
	}
	out, _ := json.MarshalIndent(doc, "", "  ")
	return append(out, '\n')
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the tables in
// this package from drifting apart (go test ./bench/perf -update rewrites
// the file).
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	path := filepath.Join("..", "..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, benchmarkJSON(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, benchmarkJSON()) {
		t.Error("BENCHMARK.json is not what the harness's tables render; run go test ./bench/perf -update")
	}
	// The limits the benchmark contract puts on the file.
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, s := range specs {
		check(s.name)
		if len(s.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", s.name, len(s.why))
		}
	}
	setup := false
	for _, d := range endToEnd {
		check(d.Name)
		// The contract allows 0.25. Only the three timing metrics take it
		// (the issue's 10 % is not one this box keeps: README, "Estimators").
		timing := d.Name == "ops_per_s" || d.Name == "p50_ms" || d.Name == "setup_s"
		if d.Bound <= 0 || d.Bound > 0.25 || (!timing && d.Bound > 0.10) {
			t.Errorf("%s: bound %v outside (0, 0.25] for timings, (0, 0.10] for counts", d.Name, d.Bound)
		}
		setup = setup || d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range perLayer {
		check(d.Name)
	}
	if len(perLayer) > 128 || len(data) > 64<<10 {
		t.Errorf("%d per-layer metrics (limit 128), %d bytes (limit 64 KiB)", len(perLayer), len(data))
	}
}

func TestEstimators(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	forty := make([]float64, 40)
	for i := range forty {
		forty[i] = float64((i*7)%40 + 1) // 1..40, shuffled
	}
	if got := nearBest(forty, true); got != 37 {
		t.Errorf("4th-best of 40 rates = %v, want 37", got)
	}
	if got := nearBest(forty, false); got != 4 {
		t.Errorf("4th-lowest of 40 latencies = %v, want 4", got)
	}
	if bestRank(400) != 40 || bestRank(40) != 4 || bestRank(9) != 1 || bestRank(1) != 1 {
		t.Errorf("bestRank(400), (40), (9), (1) = %d, %d, %d, %d", bestRank(400), bestRank(40), bestRank(9), bestRank(1))
	}
}

func TestFlagErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "no-such"}, &out, &errb); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}
