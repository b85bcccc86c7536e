// Package cache adds DHash-style key-location caching on top of the
// HIERAS overlay. The paper argues that by reusing an existing DHT as the
// underlying algorithm, "the well-designed data structure and mechanisms
// for fault tolerance, load balance and caching scheme of the underlying
// algorithm are still kept in HIERAS" (§3.2); this package realises the
// caching part: peers remember key→owner bindings (optionally seeding the
// caches of every peer a lookup passed through) and answer repeated
// lookups with one direct hop.
package cache

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/metrics"
)

// Policy selects which peers learn a binding after a successful lookup.
type Policy int

const (
	// CacheAtOrigin stores the binding only at the requesting peer.
	CacheAtOrigin Policy = iota
	// CacheAlongPath stores it at the requester and every peer the
	// routing procedure traversed (DHash's approach).
	CacheAlongPath
)

func (p Policy) String() string {
	switch p {
	case CacheAtOrigin:
		return "origin"
	case CacheAlongPath:
		return "path"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Overlay wraps a core overlay with per-peer location caches. Safe for
// concurrent use.
type Overlay struct {
	o      *core.Overlay
	policy Policy
	caches []*lru // caches[i]: peer i's key → owner index bindings

	hits, misses atomic.Int64
}

// New wraps o with per-peer caches of the given capacity.
func New(o *core.Overlay, capacity int, policy Policy) (*Overlay, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("cache: capacity must be >= 1, got %d", capacity)
	}
	caches := make([]*lru, o.N())
	for i := range caches {
		caches[i] = newLRU(capacity)
	}
	return &Overlay{o: o, policy: policy, caches: caches}, nil
}

// Result describes one cached lookup: the full routing outcome (on a hit
// the synthesized single direct hop; on a miss the complete HIERAS route,
// lower-layer accounting included) plus the hit flag.
type Result struct {
	core.RouteResult
	Hit bool
}

// Lookup routes from `from` to the owner of key, consulting the
// requester's cache first. A hit costs a single direct hop; misses run the
// full HIERAS procedure and populate caches per the policy.
func (v *Overlay) Lookup(from int, key id.ID) Result {
	if owner, ok := v.caches[from].Get(key); ok {
		v.hits.Add(1)
		res := Result{RouteResult: core.RouteResult{Origin: from, Dest: owner, Key: key}, Hit: true}
		if owner != from {
			lat := v.o.Network().Latency(v.o.Node(from).Host, v.o.Node(owner).Host)
			res.Hops = []core.Hop{{Layer: 1, From: from, To: owner, Latency: lat}}
			res.Latency = lat
		}
		return res
	}
	route := v.o.Route(from, key)
	v.misses.Add(1)
	v.caches[from].Put(key, route.Dest)
	if v.policy == CacheAlongPath {
		for _, h := range route.Hops {
			v.caches[h.To].Put(key, route.Dest)
		}
	}
	return Result{RouteResult: route}
}

// Instrument exposes the overlay's hit/miss counts on reg as
// cache_hits_total / cache_misses_total, tagged with the given labels.
// The labels let several cached overlays (e.g. a capacity sweep) share
// one registry: pass a distinguishing label such as
// metrics.Label{Name: "capacity", Value: "64"} per overlay.
func (v *Overlay) Instrument(reg *metrics.Registry, labels ...metrics.Label) {
	reg.NewCounterFunc("cache_hits_total",
		"Location-cache lookups answered from the requester's cache.",
		func() float64 { h, _ := v.Stats(); return float64(h) }, labels...)
	reg.NewCounterFunc("cache_misses_total",
		"Location-cache lookups that ran the full routing procedure.",
		func() float64 { _, m := v.Stats(); return float64(m) }, labels...)
}

// Stats returns cumulative hit/miss counts.
func (v *Overlay) Stats() (hits, misses int64) {
	return v.hits.Load(), v.misses.Load()
}

// HitRate returns hits / lookups (0 before any lookup).
func (v *Overlay) HitRate() float64 {
	h, m := v.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Entries reports how many bindings peer i currently caches.
func (v *Overlay) Entries(i int) int { return v.caches[i].Len() }
