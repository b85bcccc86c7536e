package hieras

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/routes"
	"repro/internal/wire"
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
	r := fromResult(res.RouteResult)
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
// (ROADMAP item 2, after Monnerat & Amorim's single-hop DHT): a
// near-full membership table, seeded from the overlay, answers lookups
// with one verified direct hop. The table follows the same
// verify-or-fallback contract the live transport uses — a hint is only
// trusted when the named peer confirms ownership, so a stale table
// costs a wasted probe and a classic fallback walk, never a wrong
// owner. Evict/Restore simulate the staleness window between a
// membership change and the gossip round that repairs it.
func (s *System) OneHop() *OneHopSystem {
	t := routes.New()
	for i := 0; i < s.N(); i++ {
		t.Apply(wire.RouteEvent{
			Layer: 1, Ring: "",
			Peer: wire.Peer{Addr: strconv.Itoa(i), ID: [20]byte(s.overlay.Node(i).ID)},
			Kind: wire.RouteJoin, Stamp: 1,
		})
	}
	return &OneHopSystem{sys: s, table: t}
}

// OneHopSystem is a System answering lookups from a near-full one-hop
// route table. It implements Lookuper; verified table answers are
// reported via Route.CacheHit. Safe for concurrent use (BatchLookup
// workers share it).
type OneHopSystem struct {
	sys   *System
	table *routes.Table
	hits  atomic.Uint64
	stale atomic.Uint64
}

// Lookup resolves key through the one-hop table first. A verified hit
// is the single direct hop to the owner (CacheHit set); a stale or
// missing entry falls back to the full hierarchical route, with the
// wasted verification probe added to the latency on the stale path.
func (os *OneHopSystem) Lookup(origin int, key string) (Route, error) {
	if err := os.sys.checkOrigin(origin); err != nil {
		return Route{}, err
	}
	kid := core.KeyID(key)
	o := os.sys.overlay
	truth := o.Global().SuccessorIndex(kid)
	// The table's owner candidate is the first ring member at or after the
	// key, wrapping — the successor rule the live transport applies.
	if hint, ok := os.table.Owner(1, "", [20]byte(kid)); ok {
		idx, err := strconv.Atoi(hint.Addr)
		if err == nil && idx == truth {
			// Verified: the verification round trip IS the lookup's one hop
			// (free when we own the key ourselves).
			os.hits.Add(1)
			r := Route{Dest: truth, CacheHit: true}
			if truth != origin {
				lat := o.Network().Latency(o.Node(origin).Host, o.Node(truth).Host)
				r.Hops = 1
				r.Latency = lat
			}
			return r, nil
		}
		// Stale: the probe to the wrong peer is a wasted round trip; pay
		// for it on top of the classic fallback walk.
		os.stale.Add(1)
		r := fromResult(o.Route(origin, kid))
		if err == nil && idx != origin && idx >= 0 && idx < os.sys.N() {
			r.Latency += o.Network().Latency(o.Node(origin).Host, o.Node(idx).Host)
		}
		return r, nil
	}
	// No live view of the ring at all: straight to the classic walk.
	os.stale.Add(1)
	return fromResult(o.Route(origin, kid)), nil
}

// ChordLookup routes over the flat global ring, bypassing the table —
// the same uncached baseline the underlying System reports.
func (os *OneHopSystem) ChordLookup(origin int, key string) (Route, error) {
	return os.sys.ChordLookup(origin, key)
}

// Evict tombstones a peer in the one-hop table without touching the
// overlay, modelling the staleness window after an undisseminated
// departure: lookups for the peer's keys now fail verification and fall
// back. Restore ends the window.
func (os *OneHopSystem) Evict(peer int) error {
	return os.applyMembership(peer, wire.RouteEvict)
}

// Restore re-announces an evicted peer — the gossip repair completing.
func (os *OneHopSystem) Restore(peer int) error {
	return os.applyMembership(peer, wire.RouteJoin)
}

func (os *OneHopSystem) applyMembership(peer int, kind uint8) error {
	if err := os.sys.checkOrigin(peer); err != nil {
		return err
	}
	addr := strconv.Itoa(peer)
	os.table.Apply(wire.RouteEvent{
		Layer: 1, Ring: "",
		Peer: wire.Peer{Addr: addr, ID: [20]byte(os.sys.overlay.Node(peer).ID)},
		Kind: kind, Stamp: os.table.NextStamp(1, "", addr, 0),
	})
	return nil
}

// Stats returns cumulative verified-hit and stale/fallback counts.
func (os *OneHopSystem) Stats() (hits, stale uint64) {
	return os.hits.Load(), os.stale.Load()
}

// HitRate returns the fraction of lookups answered in one verified hop
// (0 before any lookup).
func (os *OneHopSystem) HitRate() float64 {
	h, s := os.Stats()
	if h+s == 0 {
		return 0
	}
	return float64(h) / float64(h+s)
}

// FailPeers returns a degraded view of the system in which `fraction` of
// the peers (chosen with the seed) have silently failed; lookups route
// around them using the per-layer successor lists.
func (s *System) FailPeers(fraction float64, seed int64) (*DegradedSystem, error) {
	if fraction < 0 || fraction >= 1 {
		return nil, fmt.Errorf("%w: %v not in [0,1)", ErrBadFraction, fraction)
	}
	rng := rand.New(rand.NewSource(seed))
	dead := make([]bool, s.N())
	for killed := 0; killed < int(fraction*float64(s.N())); {
		i := rng.Intn(s.N())
		if !dead[i] {
			dead[i] = true
			killed++
		}
	}
	v, err := s.overlay.WithFailures(dead)
	if err != nil {
		return nil, err
	}
	return &DegradedSystem{sys: s, view: v, dead: dead}, nil
}

// DegradedSystem is a System view with failed peers. It implements
// Lookuper.
type DegradedSystem struct {
	sys  *System
	view *core.FaultyView
	dead []bool
}

// Alive reports whether a peer survived.
func (d *DegradedSystem) Alive(peer int) bool {
	return peer >= 0 && peer < len(d.dead) && !d.dead[peer]
}

// Lookup routes around the failures to the key's live owner.
func (d *DegradedSystem) Lookup(origin int, key string) (Route, error) {
	if err := d.sys.checkOrigin(origin); err != nil {
		return Route{}, err
	}
	res, err := d.view.Route(origin, core.KeyID(key))
	if err != nil {
		return Route{}, err
	}
	return fromResult(res), nil
}

// ChordLookup is the flat baseline under the same failures.
func (d *DegradedSystem) ChordLookup(origin int, key string) (Route, error) {
	if err := d.sys.checkOrigin(origin); err != nil {
		return Route{}, err
	}
	res, err := d.view.ChordRoute(origin, core.KeyID(key))
	if err != nil {
		return Route{}, err
	}
	return fromResult(res), nil
}
