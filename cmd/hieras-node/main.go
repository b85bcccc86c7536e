// Command hieras-node runs a live HIERAS peer speaking the TCP wire
// protocol — the "real implementation" the paper lists as future work.
// Nodes are placed on a virtual latency plane (-coord) so the distributed
// binning scheme is deterministic and demoable on one machine; pass
// -rtt to bin using real measured round-trip times instead.
//
// Start a network:
//
//	hieras-node -listen 127.0.0.1:7001 -coord 0,0 -create \
//	            -landmarks 127.0.0.1:7001,127.0.0.1:7002
//
// Join it:
//
//	hieras-node -listen 127.0.0.1:7003 -coord 10,5 \
//	            -join 127.0.0.1:7001
//
// Then type commands on stdin: put <key> <value> | get <key> |
// del <key> | lookup <key> | neighbors | info | stats | quit.
//
// Nodes route in -route-mode onehop by default, the mode bench/perf's KV
// workloads measure: a lookup is one verified hop once route gossip has
// converged. -route-mode classic walks the layered rings every time.
//
// Pass -metrics <addr> to serve the node's Prometheus-text metrics on
// http://<addr>/metrics (plus a /healthz endpoint); `stats` prints the
// same snapshot on stdout.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hieras-node: ")

	var cfg transport.Config
	var (
		listen    = flag.String("listen", "127.0.0.1:0", "listen address")
		create    = flag.Bool("create", false, "create a new overlay instead of joining")
		join      = flag.String("join", "", "bootstrap node address to join through")
		landmarks = flag.String("landmarks", "", "comma-separated landmark addresses (joiners inherit the bootstrap's)")
		coordStr  = flag.String("coord", "0,0", "virtual plane coordinates x,y (milliseconds)")
		rtt       = flag.Bool("rtt", false, "bin with real RTT probes instead of virtual coordinates")
		stabMs    = flag.Int("stabilize", 500, "stabilization period in milliseconds")
		metrics   = flag.String("metrics", "", "serve /metrics and /healthz on this address (e.g. 127.0.0.1:9090)")
	)
	flag.IntVar(&cfg.Depth, "depth", 2, "hierarchy depth")
	flag.StringVar(&cfg.RouteMode, "route-mode", transport.RouteOneHop, "lookup acceleration tier: onehop (gossips a full route table and answers in one verified hop) | classic (walks the layered rings every time)")

	flag.IntVar(&cfg.Replication.Factor, "r", 3, "replication factor: copies per key, the owner plus r-1 successors")
	flag.IntVar(&cfg.Replication.WriteQuorum, "w-quorum", 0, "write quorum: replica acks before a put is acknowledged (0 = majority of r)")
	flag.IntVar(&cfg.Replication.ReadQuorum, "r-quorum", 0, "read quorum: replica answers before a get trusts the freshest value (0 = first answer)")

	flag.IntVar(&cfg.Retry.MaxAttempts, "retries", 3, "RPC attempts per call, first try included (1 disables retrying)")
	flag.DurationVar(&cfg.Retry.BaseBackoff, "retry-backoff", 20*time.Millisecond, "backoff before the first retry (doubles per retry, jittered)")
	flag.DurationVar(&cfg.Retry.MaxBackoff, "retry-max-backoff", 500*time.Millisecond, "cap on the per-retry backoff")
	flag.IntVar(&cfg.Breaker.Threshold, "breaker-threshold", 5, "consecutive failures that open a peer's circuit breaker (0 disables it)")
	flag.DurationVar(&cfg.Breaker.Cooldown, "breaker-cooldown", 2*time.Second, "how long an open breaker rejects calls before probing")

	flag.DurationVar(&cfg.TTL, "ttl", 0, "data lifetime: puts expire and tombstones are pruned after this long (0 keeps data forever)")
	flag.IntVar(&cfg.AntiEntropyEvery, "anti-entropy-every", 1, "run the digest replica-sync round every N stabilize ticks")
	flag.Parse()

	var err error
	if cfg.Coord, err = parseCoord(*coordStr); err != nil {
		log.Fatal(err)
	}
	switch {
	case cfg.Breaker.Threshold < 0:
		log.Fatalf("negative breaker threshold %d (use 0 to disable)", cfg.Breaker.Threshold)
	case cfg.Breaker.Threshold == 0:
		cfg.Breaker.Threshold = -1 // the flag's 0 is "off"; Config's zero means "default"
	}
	if *landmarks != "" {
		cfg.Landmarks = strings.Split(*landmarks, ",")
	}
	if *rtt {
		cfg.Prober = &transport.RTTProber{Samples: 5, Timeout: 2 * time.Second}
	}
	node, err := transport.Start(*listen, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()
	fmt.Printf("node %s listening on %s\n", node.ID().Short(), node.Addr())

	if *metrics != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", node.Metrics().Handler())
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		go func() {
			if err := http.ListenAndServe(*metrics, mux); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
		fmt.Printf("metrics on http://%s/metrics\n", *metrics)
	}

	switch {
	case *create:
		if err := node.CreateNetwork(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("created a new overlay")
	case *join != "":
		if err := node.Join(*join); err != nil {
			log.Fatal(err)
		}
		if err := node.BuildAllFingers(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("joined via %s; rings: %v\n", *join, node.RingNames())
	default:
		log.Fatal("pass -create or -join <addr>")
	}

	// Background maintenance.
	stop := make(chan struct{})
	go func() {
		t := time.NewTicker(time.Duration(*stabMs) * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				_ = node.StabilizeOnce()
				_ = node.FixFingersOnce(4)
			}
		}
	}()
	defer close(stop)

	repl(node)
}

func parseCoord(s string) ([2]float64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return [2]float64{}, fmt.Errorf("coord must be x,y, got %q", s)
	}
	var c [2]float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return c, fmt.Errorf("coord %q: %v", s, err)
		}
		c[i] = v
	}
	return c, nil
}

func repl(node *transport.Node) {
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			fmt.Print("> ")
			continue
		}
		switch fields[0] {
		case "quit", "exit":
			return
		case "info":
			fmt.Printf("addr %s id %s rings %v, %d requests received over the wire\n",
				node.Addr(), node.ID().Short(), node.RingNames(), node.Handled())
		case "stats":
			if _, err := node.Metrics().WriteTo(os.Stdout); err != nil {
				fmt.Println("error:", err)
			}
		case "neighbors":
			for layer := 1; ; layer++ {
				succ, pred, err := node.Neighbors(layer)
				if err != nil {
					break
				}
				fmt.Printf("layer %d: pred=%s succ=", layer, pred.Addr)
				for _, s := range succ {
					fmt.Printf("%s ", s.Addr)
				}
				fmt.Println()
			}
		case "lookup":
			if len(fields) != 2 {
				fmt.Println("usage: lookup <key>")
				break
			}
			var tr transport.Trace
			res, err := node.Lookup(transport.WithTrace(context.Background(), &tr), transport.LiveKeyID(fields[1]))
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			fmt.Printf("owner %s (%d hops, per layer %v)\n", res.Owner.Addr, res.Hops, res.LayerHops[:len(node.RingNames())+1])
			for _, c := range tr.Calls {
				fmt.Printf("  %s %s, layer %d, %v\n", c.Type, c.Addr, c.Layer, c.RTT)
			}
		case "put":
			if len(fields) < 3 {
				fmt.Println("usage: put <key> <value...>")
				break
			}
			if err := node.Put(context.Background(), fields[1], []byte(strings.Join(fields[2:], " "))); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("ok")
			}
		case "get":
			if len(fields) != 2 {
				fmt.Println("usage: get <key>")
				break
			}
			v, err := node.Get(context.Background(), fields[1])
			if err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Printf("%s\n", v)
			}
		case "del":
			if len(fields) != 2 {
				fmt.Println("usage: del <key>")
				break
			}
			if err := node.Delete(context.Background(), fields[1]); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("ok")
			}
		default:
			fmt.Println("commands: info | neighbors | lookup <key> | put <k> <v> | get <k> | del <k> | stats | quit")
		}
		fmt.Print("> ")
	}
}
