package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

func TestPoolCommitsInOrder(t *testing.T) {
	p := NewPool(8)
	var order []int
	err := p.Run(context.Background(), 50,
		func(_, b int) error { return nil },
		func(b int) error { order = append(order, b); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 50 {
		t.Fatalf("committed %d blocks, want 50", len(order))
	}
	for i, b := range order {
		if b != i {
			t.Fatalf("commit order broken at %d: got block %d", i, b)
		}
	}
}

func TestPoolNilCommitAndZeroBlocks(t *testing.T) {
	p := NewPool(0) // defaults to GOMAXPROCS
	if p.Workers() < 1 {
		t.Fatal("worker bound must be positive")
	}
	var ran atomic.Int64
	if err := p.Run(context.Background(), 7, func(_, b int) error {
		ran.Add(1)
		return nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 7 {
		t.Fatalf("ran %d blocks, want 7", ran.Load())
	}
	if err := p.Run(context.Background(), 0, nil, nil); err != nil {
		t.Fatalf("zero blocks: %v", err)
	}
}

func TestPoolExecErrorStops(t *testing.T) {
	p := NewPool(4)
	boom := errors.New("boom")
	err := p.Run(context.Background(), 100,
		func(_, b int) error {
			if b == 3 {
				return boom
			}
			return nil
		},
		func(b int) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestPoolCommitErrorStops(t *testing.T) {
	p := NewPool(4)
	bad := errors.New("merge failed")
	committed := 0
	err := p.Run(context.Background(), 40,
		func(_, b int) error { return nil },
		func(b int) error {
			if b == 5 {
				return bad
			}
			committed++
			return nil
		})
	if !errors.Is(err, bad) {
		t.Fatalf("err = %v, want wrapped bad", err)
	}
	if committed != 5 {
		t.Fatalf("committed %d blocks before the failure, want 5", committed)
	}
}

func TestPoolCancellation(t *testing.T) {
	p := NewPool(2)
	ctx, cancel := context.WithCancel(context.Background())
	err := p.Run(ctx, 1000,
		func(_, b int) error {
			if b == 10 {
				cancel()
			}
			return nil
		},
		nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A pre-cancelled context never runs a block.
	ran := false
	err = p.Run(ctx, 5, func(_, b int) error { ran = true; return nil }, nil)
	if !errors.Is(err, context.Canceled) || ran {
		t.Fatalf("pre-cancelled run: err=%v ran=%v", err, ran)
	}
}

// TestCompareWorkerCountInvariance is the engine's headline guarantee:
// the same seed produces a byte-identical Comparison at any worker count.
func TestCompareWorkerCountInvariance(t *testing.T) {
	s := Scenario{Nodes: 120, Requests: 11*blockSize + 92, Seed: 9} // 12 blocks, the last one partial
	o, err := BuildOverlay(s)
	if err != nil {
		t.Fatal(err)
	}
	var got []*Comparison
	for _, workers := range []int{1, 3, 8} {
		sw := s
		sw.Workers = workers
		cmp, err := CompareOn(o, sw)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, cmp)
	}
	for i := 1; i < len(got); i++ {
		a, b := got[0], got[i]
		if a.Hieras.Hops.Mean() != b.Hieras.Hops.Mean() ||
			a.Hieras.Latency.Mean() != b.Hieras.Latency.Mean() ||
			a.Chord.Hops.Mean() != b.Chord.Hops.Mean() ||
			a.Chord.Latency.Mean() != b.Chord.Latency.Mean() ||
			a.LowerHops.Mean() != b.LowerHops.Mean() ||
			a.TopLink.Mean() != b.TopLink.Mean() {
			t.Errorf("means differ between 1 and %d workers", b.Scenario.Workers)
		}
		if !reflect.DeepEqual(a.HopsHistHieras, b.HopsHistHieras) ||
			!reflect.DeepEqual(a.LatHistChord, b.LatHistChord) {
			t.Errorf("histograms differ between 1 and %d workers", b.Scenario.Workers)
		}
		for _, q := range []float64{0.5, 0.95, 0.99} {
			if a.HierasLatQ.Quantile(q) != b.HierasLatQ.Quantile(q) {
				t.Errorf("latency q=%v differs between 1 and %d workers", q, b.Scenario.Workers)
			}
		}
	}
}

func TestCompareStreamProgress(t *testing.T) {
	s := Scenario{Nodes: 100, Requests: 7 * blockSize, Seed: 4, Workers: 4}
	o, err := BuildOverlay(s)
	if err != nil {
		t.Fatal(err)
	}
	var seen []Progress
	cmp, err := CompareStream(context.Background(), o, s, func(p Progress) {
		seen = append(seen, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 7 {
		t.Fatalf("got %d progress callbacks, want 7 (one per block)", len(seen))
	}
	for i, p := range seen {
		if p.Requests != (i+1)*blockSize || p.Total != 7*blockSize {
			t.Fatalf("progress %d: %+v", i, p)
		}
	}
	last := seen[len(seen)-1]
	if last.HierasLatencyMs != cmp.Hieras.Latency.Mean() || last.LatencyRatio != cmp.LatencyRatio() {
		t.Error("final progress must equal the final comparison")
	}
}

func TestCompareContextCancellation(t *testing.T) {
	s := Scenario{Nodes: 100, Requests: 100000, Seed: 5, Workers: 2}
	o, err := BuildOverlay(s)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := CompareStream(ctx, o, s, func(p Progress) {
			if p.Requests >= 2*blockSize {
				cancel()
			}
		})
		done <- err
	}()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestBlockSeedSpreads(t *testing.T) {
	seen := make(map[int64]bool)
	for b := 0; b < 1000; b++ {
		s := blockSeed(42, b)
		if seen[s] {
			t.Fatalf("block seed collision at block %d", b)
		}
		seen[s] = true
	}
	if blockSeed(1, 0) == blockSeed(2, 0) {
		t.Error("different scenario seeds must split differently")
	}
}

func ExamplePool() {
	// Square 6 numbers in parallel; commits still arrive in block order.
	p := NewPool(4)
	out := make([]int, 6)
	_ = p.Run(context.Background(), 6,
		func(_, b int) error { out[b] = b * b; return nil },
		func(b int) error { fmt.Println(b, out[b]); return nil })
	// Output:
	// 0 0
	// 1 1
	// 2 4
	// 3 9
	// 4 16
	// 5 25
}
