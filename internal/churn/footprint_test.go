//go:build !race

// A node's standing cost, held as a test. Heap and goroutine counts are
// only meaningful without the race detector, hence the build tag; CI runs
// this as part of the alloc-budget step (make allocs).

package churn

import (
	"math/rand"
	"runtime"
	"testing"
)

// Per-node budgets of a settled 64-node depth-2 cluster, committed with
// under 20 % headroom over what TestAllocBudgetNodeFootprint measures:
// 138 KB of heap and 66 goroutines a node (one per connection end: ~33
// pooled connections out, as many served in). Before frame readers
// stopped holding a bufio.Reader and a frame buffer per connection end,
// the same node held 443 KB of heap and the same 66 goroutines.
//
// Its goroutine stacks, 394 KiB (403 KiB with a goroutine per served
// request), are three times its heap. Each session's reader answers its
// requests itself, so the serve path must fit the reader's stack: it
// passes Request and Response by pointer, and its frames are small.
// Answering inline through the by-value handler reads 462 KiB here (the
// GC halves a parked reader's stack and the next request grows it back),
// which the stack budget catches.
const (
	maxNodeHeap       = 160 << 10
	maxNodeGoroutines = 76
	maxNodeStack      = 448 << 10
)

// TestAllocBudgetNodeFootprint: the heap bytes and goroutines one settled
// node holds — started, joined and run through the churn study's own
// path (drive) with no churn.
func TestAllocBudgetNodeFootprint(t *testing.T) {
	const nodes = 64
	net := testNet(t, nodes, 11)
	cfg := baseConfig()
	cfg.InitialNodes = nodes
	cfg.Duration = 2 // a few lookups and one round past drive's own settling
	rng := rand.New(rand.NewSource(cfg.Seed))

	g0 := runtime.NumGoroutine()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	c, err := NewCluster(net, cfg.Depth, cfg.Landmarks, cfg.SuccessorListLen, rng)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
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
	heap := float64(int64(ms1.HeapAlloc)-int64(ms0.HeapAlloc)) / nodes
	goroutines := float64(g1-g0) / nodes
	stack := float64(int64(ms1.StackInuse)-int64(ms0.StackInuse)) / nodes
	t.Logf("one settled node: %.0f B heap, %.1f goroutines, %.0f B stack", heap, goroutines, stack)
	if heap > maxNodeHeap {
		t.Errorf("one settled node holds %.0f B of heap, budget %d", heap, maxNodeHeap)
	}
	if goroutines > maxNodeGoroutines {
		t.Errorf("one settled node runs %.1f goroutines, budget %d", goroutines, maxNodeGoroutines)
	}
	if stack > maxNodeStack {
		t.Errorf("one settled node holds %.0f B of goroutine stack, budget %d", stack, maxNodeStack)
	}
}
