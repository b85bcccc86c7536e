package transport

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/replica"
	"repro/internal/wire"
)

// ErrBadOptions reports invalid node options: every validation failure
// wraps it, so callers can errors.Is once instead of matching message
// strings (the same contract the root package's hieras.ErrBadOptions
// provides for simulator options).
var ErrBadOptions = errors.New("transport: invalid options")

// Options is the validated, flag-shaped configuration of a live node —
// the surface cmd/hieras-node exposes. It carries only plain scalar
// fields (so every one maps 1:1 onto a command-line flag) and compiles
// into the richer Config via Config(). Zero values mean "use the
// default" except where a field documents otherwise.
type Options struct {
	// Depth is the hierarchy depth (default 2; 1 = plain Chord).
	Depth int
	// CallTimeout bounds each RPC attempt (default 3s).
	CallTimeout time.Duration
	// LookupCache is the location-cache capacity. 0 keeps caching off;
	// DefaultOptions sets 256.
	LookupCache int
	// RouteMode selects the lookup acceleration tier: "classic" (walk
	// the layered rings every time), "cached" (verified location cache)
	// or "onehop" (gossip-maintained near-full route table answering
	// lookups in one verified hop). Empty derives the mode from
	// LookupCache, matching the pre-onehop behaviour.
	RouteMode string

	// Replicas is the replication factor r: the owner plus r-1
	// successors hold each key (default 3).
	Replicas int
	// WriteQuorum is the replica acks required before a put is
	// acknowledged (0 = majority of Replicas).
	WriteQuorum int
	// ReadQuorum is the replica answers required before a get trusts
	// the freshest value (0 = first answer).
	ReadQuorum int

	// Retries is the RPC attempts per call, first try included
	// (default 3; 1 disables retrying).
	Retries int
	// RetryBackoff is the backoff before the first retry; it doubles
	// per retry, jittered (default 20ms).
	RetryBackoff time.Duration
	// RetryMaxBackoff caps the per-retry backoff (default 500ms).
	RetryMaxBackoff time.Duration

	// BreakerThreshold is the consecutive-failure count that opens a
	// peer's circuit breaker. 0 disables the breaker; DefaultOptions
	// sets 5.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects calls before
	// probing the peer again (default 2s).
	BreakerCooldown time.Duration

	// TTL is the data lifetime: puts expire TTL after being written and
	// deletes leave tombstones for the same grace period. 0 (the
	// default) keeps data and tombstones forever. A positive TTL must
	// comfortably exceed the anti-entropy convergence time, or a
	// tombstone can expire before every replica has seen it.
	TTL time.Duration
	// AntiEntropyEvery runs the digest-based replica-sync round on every
	// Nth stabilize tick (default 1: every tick). Eviction of a dead
	// peer still forces an immediate round regardless of cadence.
	AntiEntropyEvery int
}

// DefaultOptions returns the defaults cmd/hieras-node advertises in its
// flag help — the values a node runs with when no flag is passed.
func DefaultOptions() Options {
	return Options{
		Depth:            2,
		CallTimeout:      3 * time.Second,
		LookupCache:      256,
		Replicas:         3,
		Retries:          3,
		RetryBackoff:     20 * time.Millisecond,
		RetryMaxBackoff:  500 * time.Millisecond,
		BreakerThreshold: 5,
		BreakerCooldown:  2 * time.Second,
		AntiEntropyEvery: 1,
	}
}

// WithDefaults fills zero-valued fields with their defaults. Fields
// whose zero value is meaningful (LookupCache, WriteQuorum, ReadQuorum,
// BreakerThreshold) are left alone.
func (o Options) WithDefaults() Options {
	d := DefaultOptions()
	if o.Depth == 0 {
		o.Depth = d.Depth
	}
	if o.CallTimeout == 0 {
		o.CallTimeout = d.CallTimeout
	}
	if o.Replicas == 0 {
		o.Replicas = d.Replicas
	}
	if o.Retries == 0 {
		o.Retries = d.Retries
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = d.RetryBackoff
	}
	if o.RetryMaxBackoff == 0 {
		o.RetryMaxBackoff = d.RetryMaxBackoff
	}
	if o.BreakerCooldown == 0 {
		o.BreakerCooldown = d.BreakerCooldown
	}
	if o.AntiEntropyEvery == 0 {
		o.AntiEntropyEvery = d.AntiEntropyEvery
	}
	return o
}

// Validate rejects malformed options up front with an error wrapping
// ErrBadOptions. It validates the options as given; apply WithDefaults
// first when zero means "default".
func (o Options) Validate() error {
	if o.Depth < 1 {
		return fmt.Errorf("%w: depth %d, must be >= 1", ErrBadOptions, o.Depth)
	}
	if o.CallTimeout <= 0 {
		return fmt.Errorf("%w: call timeout %v, must be positive", ErrBadOptions, o.CallTimeout)
	}
	if o.LookupCache < 0 {
		return fmt.Errorf("%w: negative lookup-cache capacity %d", ErrBadOptions, o.LookupCache)
	}
	switch o.RouteMode {
	case "", RouteClassic, RouteCached, RouteOneHop:
	default:
		return fmt.Errorf("%w: route mode %q, want %s, %s or %s",
			ErrBadOptions, o.RouteMode, RouteClassic, RouteCached, RouteOneHop)
	}
	if o.Replicas < 1 {
		return fmt.Errorf("%w: replication factor %d, must be >= 1", ErrBadOptions, o.Replicas)
	}
	if o.WriteQuorum < 0 || o.WriteQuorum > o.Replicas {
		return fmt.Errorf("%w: write quorum %d outside [0, %d]", ErrBadOptions, o.WriteQuorum, o.Replicas)
	}
	if o.ReadQuorum < 0 || o.ReadQuorum > o.Replicas {
		return fmt.Errorf("%w: read quorum %d outside [0, %d]", ErrBadOptions, o.ReadQuorum, o.Replicas)
	}
	if o.Retries < 1 {
		return fmt.Errorf("%w: %d retries, must be >= 1 (1 disables retrying)", ErrBadOptions, o.Retries)
	}
	if o.RetryBackoff < 0 {
		return fmt.Errorf("%w: negative retry backoff %v", ErrBadOptions, o.RetryBackoff)
	}
	if o.RetryMaxBackoff < o.RetryBackoff {
		return fmt.Errorf("%w: max backoff %v below base backoff %v",
			ErrBadOptions, o.RetryMaxBackoff, o.RetryBackoff)
	}
	if o.BreakerThreshold < 0 {
		return fmt.Errorf("%w: negative breaker threshold %d (use 0 to disable)",
			ErrBadOptions, o.BreakerThreshold)
	}
	if o.BreakerThreshold > 0 && o.BreakerCooldown <= 0 {
		return fmt.Errorf("%w: breaker cooldown %v, must be positive while the breaker is on",
			ErrBadOptions, o.BreakerCooldown)
	}
	if o.TTL < 0 {
		return fmt.Errorf("%w: negative ttl %v (use 0 to keep data forever)", ErrBadOptions, o.TTL)
	}
	if o.AntiEntropyEvery < 1 {
		return fmt.Errorf("%w: anti-entropy cadence %d, must be >= 1 stabilize ticks",
			ErrBadOptions, o.AntiEntropyEvery)
	}
	return nil
}

// Config compiles the options into a node Config: defaults applied,
// fields validated, the breaker's "0 = off" resolved to the wire layer's
// -1 sentinel.
func (o Options) Config() (Config, error) {
	o = o.WithDefaults()
	if err := o.Validate(); err != nil {
		return Config{}, err
	}
	breaker := o.BreakerThreshold
	if breaker <= 0 {
		breaker = -1 // options 0 = off; the wire zero value means "default"
	}
	return Config{
		Depth:       o.Depth,
		CallTimeout: o.CallTimeout,
		LookupCache: o.LookupCache,
		RouteMode:   o.RouteMode,
		Replication: replica.Options{
			Factor:      o.Replicas,
			WriteQuorum: o.WriteQuorum,
			ReadQuorum:  o.ReadQuorum,
		},
		Retry: wire.RetryPolicy{
			MaxAttempts: o.Retries,
			BaseBackoff: o.RetryBackoff,
			MaxBackoff:  o.RetryMaxBackoff,
		},
		Breaker:          wire.BreakerPolicy{Threshold: breaker, Cooldown: o.BreakerCooldown},
		TTL:              o.TTL,
		AntiEntropyEvery: o.AntiEntropyEvery,
	}, nil
}
