package hieras

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
)

// Cached wraps the system with per-peer location caches (see
// internal/cache): repeated lookups for popular keys short-circuit to one
// direct hop. alongPath seeds the caches of every peer a lookup traverses
// (DHash-style) instead of only the requester's.
func (s *System) Cached(capacity int, alongPath bool) (*CachedSystem, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("%w: cache capacity %d must be >= 1", ErrBadOptions, capacity)
	}
	policy := cache.CacheAtOrigin
	if alongPath {
		policy = cache.CacheAlongPath
	}
	c, err := cache.New(s.overlay, capacity, policy)
	if err != nil {
		return nil, err
	}
	return &CachedSystem{sys: s, c: c}, nil
}

// CachedSystem is a System with location caching enabled. It implements
// Lookuper; hits are reported via Route.CacheHit.
type CachedSystem struct {
	sys *System
	c   *cache.Overlay
}

// Lookup routes to the owner of key, consulting the requester's cache.
// On a hit the route is the single direct hop and Route.CacheHit is set;
// on a miss the full hierarchical route — lower-layer hop and latency
// accounting included — is returned.
func (cs *CachedSystem) Lookup(origin int, key string) (Route, error) {
	if err := cs.sys.checkOrigin(origin); err != nil {
		return Route{}, err
	}
	res := cs.c.Lookup(origin, core.KeyID(key))
	r := fromTotals(res.Totals())
	r.CacheHit = res.Hit
	return r, nil
}

// ChordLookup routes over the flat global ring, bypassing the cache — the
// same uncached baseline the underlying System reports.
func (cs *CachedSystem) ChordLookup(origin int, key string) (Route, error) {
	return cs.sys.ChordLookup(origin, key)
}

// HitRate returns the cumulative cache hit rate.
func (cs *CachedSystem) HitRate() float64 { return cs.c.HitRate() }

// OneHop wraps the system with the single-hop route acceleration tier
// (ROADMAP item 2, after Monnerat & Amorim's single-hop DHT) in its
// converged state: every peer's table names every member, so each lookup
// is one direct hop to the key's global owner. The tier's staleness —
// a hint the named node refuses, and the walk that follows — runs on the
// live node (transport), and is tested there.
func (s *System) OneHop() *OneHopSystem {
	return &OneHopSystem{sys: s}
}

// OneHopSystem is a System answering lookups from a converged one-hop
// route table. It implements Lookuper; table answers are reported via
// Route.CacheHit. Safe for concurrent use.
type OneHopSystem struct {
	sys *System
}

// Lookup is the single direct hop to the key's owner (CacheHit set), free
// when the origin owns the key itself.
func (os *OneHopSystem) Lookup(origin int, key string) (Route, error) {
	if err := os.sys.checkOrigin(origin); err != nil {
		return Route{}, err
	}
	o := os.sys.overlay
	owner := o.Global().SuccessorIndex(core.KeyID(key))
	r := Route{Dest: owner, CacheHit: true}
	if owner != origin {
		r.Hops = 1
		r.Latency = o.Network().Latency(o.Node(origin).Host, o.Node(owner).Host)
	}
	return r, nil
}

// ChordLookup routes over the flat global ring, bypassing the table —
// the same uncached baseline the underlying System reports.
func (os *OneHopSystem) ChordLookup(origin int, key string) (Route, error) {
	return os.sys.ChordLookup(origin, key)
}
