package chord

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/id"
)

// LatencyFunc returns the network latency between two hosts in
// milliseconds.
type LatencyFunc func(a, b int) float64

// BuildTablePNS constructs a Chord table with proximity neighbor
// selection: finger k may legally be ANY node in the interval
// [n+2^k, n+2^(k+1)) (routing stays correct and logarithmic), so each slot
// picks the topologically closest of up to `samples` candidates from that
// interval. This is the locality optimisation used by DHash/Chord and
// Pastry, implemented here as a baseline the HIERAS hierarchy can be
// compared against — and combined with.
//
// When an interval contains no member the slot falls back to
// successor(n+2^k), exactly as plain Chord.
func BuildTablePNS(members []Member, lat LatencyFunc, samples int, seed int64, workers int) (*Table, error) {
	if lat == nil {
		return nil, fmt.Errorf("chord: BuildTablePNS needs a latency function")
	}
	if samples < 1 {
		samples = 8
	}
	// Start from the exact table (gives us sorted ids, hosts, and the
	// plain fingers to fall back on).
	t, err := BuildTable(members, workers)
	if err != nil {
		return nil, err
	}
	n := t.Len()
	// Sampling runs in fixed blocks of members, one random stream per
	// BLOCK (the rule experiments.blockSeed documents): workers decides
	// who runs a block, never what it draws, so the fingers — and every
	// table printed from them — are the same at any worker count.
	const block = 64
	blocks := (n + block - 1) / block
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > blocks {
		workers = blocks
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := int(cursor.Add(1)) - 1; b < blocks; b = int(cursor.Add(1)) - 1 {
				rng := rand.New(rand.NewSource(seed + int64(b)*7919))
				hi := b*block + block
				if hi > n {
					hi = n
				}
				for i := b * block; i < hi; i++ {
					pnsFingers(t, i, lat, samples, rng)
				}
			}
		}()
	}
	wg.Wait()
	return t, nil
}

// pnsFingers re-picks member i's fingers by proximity, drawing candidates
// from rng. Slots are re-picked in ascending order, so while slot k is
// chosen, slot k+1 still holds the plain finger successor(start_{k+1}).
func pnsFingers(t *Table, i int, lat LatencyFunc, samples int, rng *rand.Rand) {
	n := t.Len()
	fs := t.fingers[i].Expand()
	for k := uint(0); k < id.Bits; k++ {
		first := int(fs[k]) // successor(start_k)
		lastExcl := i       // interval [n+2^159, n) ends at self
		if k+1 < id.Bits {
			lastExcl = int(fs[k+1])
		}
		// Members in the finger interval form the circular index range
		// [first, lastExcl). Empty => keep the plain fallback finger.
		size := lastExcl - first
		if size < 0 {
			size += n
		}
		if size <= 1 {
			continue
		}
		// Verify `first` actually lies inside the interval (it may be the
		// fallback successor beyond it).
		start, end := id.AddPow2(t.ids[i], k), endOf(t.ids[i], k)
		if !id.InClosedOpen(t.ids[first], start, end) {
			continue
		}
		best := first
		bestLat := lat(int(t.hosts[i]), int(t.hosts[first]))
		for s := 0; s < samples-1; s++ {
			cand := (first + rng.Intn(size)) % n
			if !id.InClosedOpen(t.ids[cand], start, end) {
				continue
			}
			if l := lat(int(t.hosts[i]), int(t.hosts[cand])); l < bestLat {
				best, bestLat = cand, l
			}
		}
		fs[k] = int32(best)
	}
	var pns Fingers[int32]
	for k, m := range fs {
		pns.Set(k, m)
	}
	pns.defined = true // each finger lies in its slot's interval
	t.fingers[i] = pns
}

// endOf returns the exclusive end of finger interval k for node x:
// x + 2^(k+1), or x itself for the last interval.
func endOf(x id.ID, k uint) id.ID {
	if k+1 < id.Bits {
		return id.AddPow2(x, k+1)
	}
	return x
}
