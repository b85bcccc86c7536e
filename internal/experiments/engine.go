package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is the parallel batch query engine: it fans numbered blocks of
// work across a bounded set of goroutines and commits each block's result
// in strict block order, so a merge performed inside commit is
// byte-identical no matter how many workers ran — the property every
// deterministic experiment in this package relies on.
//
// Workers claim blocks from an atomic cursor (work stealing, so an
// expensive block never idles the rest of the pool), and whichever worker
// fills the gap at the commit frontier drains it under a lock. Commit
// callbacks therefore run serialized and in ascending block order, which
// also gives streaming consumers (progress reporting) a consistent
// prefix of the final result at every callback.
type Pool struct {
	workers int
}

// NewPool returns a pool with the given worker bound; workers <= 0 uses
// all CPUs. The pool is stateless between Run calls and may be reused.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's worker bound.
func (p *Pool) Workers() int { return p.workers }

// Run executes blocks 0..blocks-1. exec(worker, block) runs concurrently
// on up to Workers goroutines; commit(block), when non-nil, runs
// serialized in ascending block order as soon as every earlier block has
// committed. The first exec/commit error (or ctx cancellation) stops the
// pool and is returned; blocks already committed stay committed.
func (p *Pool) Run(ctx context.Context, blocks int, exec func(worker, block int) error, commit func(block int) error) error {
	if blocks <= 0 {
		return ctx.Err()
	}
	workers := p.workers
	if workers > blocks {
		workers = blocks
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64
		mu       sync.Mutex
		done     = make([]bool, blocks)
		frontier int
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				b := int(next.Add(1)) - 1
				if b >= blocks || ctx.Err() != nil {
					return
				}
				if err := exec(w, b); err != nil {
					fail(fmt.Errorf("experiments: block %d: %w", b, err))
					return
				}
				mu.Lock()
				done[b] = true
				for frontier < blocks && done[frontier] && firstErr == nil {
					f := frontier
					frontier++
					if commit != nil {
						if err := commit(f); err != nil {
							firstErr = fmt.Errorf("experiments: commit block %d: %w", f, err)
							cancel()
						}
					}
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// blockSeed derives the deterministic RNG seed of one request block from
// the scenario seed (splitmix64 finalizer). Streams are split per block —
// not per worker — so the request content, and with it every merged
// summary, is invariant to the worker count.
func blockSeed(seed int64, block int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(block+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
