//go:build !race

// A node's standing cost, held as a test. Heap and goroutine counts are
// only meaningful without the race detector, hence the build tag; CI runs
// this as part of the alloc-budget step (make allocs).

package churn

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Per-node budgets of a settled depth-2 cluster, by cluster size, each
// committed with under 20 % headroom over what
// TestAllocBudgetNodeFootprint measures (64 nodes / 256 nodes):
//
//   - heap: 87.6 / 145 KB. Connections per node grow with N (32.5 / 60.5
//     opened here), so a node is ~21 KB fixed plus ~2.0 KB per connection.
//     Before metric families held their values inline and shared their
//     label strings process-wide, fingers were stored once per distinct
//     peer, the retrier's jitter source shrank to 8 bytes and a
//     connection stopped making a map for its in-flight tags, the same
//     nodes held 134 / 204 KB (~53 KB fixed, ~2.5 KB per connection). Before
//     frame readers stopped holding a bufio.Reader and a frame buffer per
//     connection end, the 64-node cluster's node held 443 KB.
//   - goroutines: one per connection end (66 / 122).
//   - stack: 394 / 726 KiB. Each session's reader answers its requests
//     itself, so the serve path must fit the reader's stack: it passes
//     Request and Response by pointer, and its frames are small. Answering
//     inline through the by-value handler reads 462 KiB at 64 nodes (the
//     GC halves a parked reader's stack and the next request grows it
//     back), which the stack budget catches.
var footprintBudgets = []struct {
	nodes       int
	heap, stack float64 // bytes per node
	goroutines  float64 // per node
}{
	{nodes: 64, heap: 100 << 10, goroutines: 76, stack: 448 << 10},
	{nodes: 256, heap: 168 << 10, goroutines: 144, stack: 864 << 10},
}

// TestAllocBudgetNodeFootprint: the heap bytes, goroutines and goroutine
// stack one settled node holds — started, joined and run through the
// churn study's own path (drive) with no churn — at two cluster sizes,
// beside the connections a node opened.
func TestAllocBudgetNodeFootprint(t *testing.T) {
	for _, b := range footprintBudgets {
		t.Run(fmt.Sprintf("n=%d", b.nodes), func(t *testing.T) {
			start := time.Now()
			topo := testNet(t, b.nodes, 11)
			cfg := baseConfig()
			cfg.InitialNodes = b.nodes
			cfg.Duration = 2 // a few lookups and one round past drive's own settling
			rng := rand.New(rand.NewSource(cfg.Seed))

			g0 := runtime.NumGoroutine()
			var ms0, ms1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			c, err := NewCluster(topo, cfg.Depth, cfg.Landmarks, cfg.SuccessorListLen, rng)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var dials atomic.Int64
			dial := c.dial
			c.dial = func(addr string, timeout time.Duration) (net.Conn, error) {
				dials.Add(1)
				return dial(addr, timeout)
			}
			res, err := drive(c, cfg, rng)
			if err != nil {
				t.Fatal(err)
			}
			if res.CorrectRate != 1 {
				t.Fatalf("cluster not settled: %+v", *res)
			}
			g1 := runtime.NumGoroutine()
			runtime.GC()
			runtime.ReadMemStats(&ms1)
			n := float64(b.nodes)
			heap := float64(int64(ms1.HeapAlloc)-int64(ms0.HeapAlloc)) / n
			goroutines := float64(g1-g0) / n
			stack := float64(int64(ms1.StackInuse)-int64(ms0.StackInuse)) / n
			t.Logf("one settled node of %d: %.0f B heap, %.1f connections opened, %.1f goroutines, %.0f B stack (%v)",
				b.nodes, heap, float64(dials.Load())/n, goroutines, stack, time.Since(start).Round(time.Millisecond))
			if heap > b.heap {
				t.Errorf("one settled node holds %.0f B of heap, budget %.0f", heap, b.heap)
			}
			if goroutines > b.goroutines {
				t.Errorf("one settled node runs %.1f goroutines, budget %.0f", goroutines, b.goroutines)
			}
			if stack > b.stack {
				t.Errorf("one settled node holds %.0f B of goroutine stack, budget %.0f", stack, b.stack)
			}
		})
	}
}
