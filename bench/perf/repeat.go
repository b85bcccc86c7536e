package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so the
// spreads printed here are the ones the benchmark's driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		delta := i*(m+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > m-1 {
			j, delta = m-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// runOnce runs one workload in a fresh process, so sets never share a
// heap, and parses the result line it ends with.
func runOnce(name string, cfg config, seed int64, stderr io.Writer) (resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return resultLine{}, err
	}
	cmd := exec.Command(exe,
		"-workload", name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(cfg.seconds),
		"-port-base", strconv.Itoa(cfg.portBase), "-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64))
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return resultLine{}, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return resultLine{}, fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
	}
	return line, nil
}

// runRepeat runs the workloads as two interleaved sets of n (A B A B …),
// every run on its own seed, and checks what the driver checks: neither
// set's median is worse than the other's by more than the bound, and each
// set's spread — quartile distance over median — stays within the bound
// too (setup_s excepted, as in the driver).
func runRepeat(todo []spec, cfg config, n int, stdout, stderr io.Writer) int {
	if n < 2 {
		fmt.Fprintln(stderr, "perf: -repeat needs sets of at least 2 runs to have quartiles")
		return 2
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, s := range todo {
				seed := cfg.seed + int64(2*i+set)
				line, err := runOnce(s.name, cfg, seed, stderr)
				if err != nil || !line.Correct {
					fmt.Fprintf(stderr, "perf: repeat %s set %c run %d: correct=%v err=%v\n", s.name, 'A'+set, i+1, line.Correct, err)
					return 1
				}
				for name, v := range line.Metrics {
					sets[set][key{s.name, name}] = append(sets[set][key{s.name, name}], v.Value)
				}
				fmt.Fprintf(stderr, "perf: repeat %d/%d set %c %s done\n", i+1, n, 'A'+set, s.name)
			}
		}
	}
	fmt.Fprintf(stdout, "two interleaved sets of %d runs per workload, seeds %d..%d, -seconds %d\n", n, cfg.seed, cfg.seed+int64(2*n-1), cfg.seconds)
	fmt.Fprintf(stdout, "%-12s %-20s %14s %14s %9s %9s %9s %7s  %s\n", "workload", "metric", "median A", "median B", "B vs A", "spread A", "spread B", "bound", "verdict")
	breaches := 0
	for _, s := range todo {
		for _, d := range endToEnd {
			a, b := sets[0][key{s.name, d.Name}], sets[1][key{s.name, d.Name}]
			ma, mb := median(a), median(b)
			// worse(x, y): how much worse y is than x, as a share of x.
			worse := func(x, y float64) float64 {
				if d.Better == "higher" {
					return (x - y) / x
				}
				return (y - x) / x
			}
			diff := worse(ma, mb)
			spread := func(xs []float64) float64 {
				q1, q3 := quartiles(xs)
				return (q3 - q1) / median(xs)
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			if diff > d.Bound || worse(mb, ma) > d.Bound || (d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound)) {
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(stdout, "%-12s %-20s %14.6g %14.6g %+8.2f%% %8.2f%% %8.2f%% %6.1f%%  %s\n",
				s.name, d.Name, ma, mb, 100*diff, 100*sa, 100*sb, 100*d.Bound, verdict)
		}
	}
	if breaches > 0 {
		fmt.Fprintf(stdout, "%d breach(es)\n", breaches)
		return 1
	}
	fmt.Fprintln(stdout, "all medians and spreads within their bounds")
	return 0
}
