package replica

import (
	"context"
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// CallFunc performs one wire exchange with a replica-set member. The
// transport layer binds this to its retrier so replica traffic shares
// the node's retry/breaker/fault-injection stack; unit tests bind it
// to fakes. The context is the quorum operation's: cancelling it
// abandons the remaining member calls.
type CallFunc func(ctx context.Context, addr string, req wire.Request) (wire.Response, error)

// ResolveFunc maps a key to its replica set: the owner first, then the
// owner's successors in list order, deduplicated — at most Factor
// members (fewer on small rings).
type ResolveFunc func(ctx context.Context, key string) ([]string, error)

// Metrics is the replica subsystem's instrument panel. All fields are
// non-nil after NewMetrics; with a nil registry they are private
// throwaways, mirroring wire.NewRetrier.
type Metrics struct {
	Lag          *metrics.Gauge
	RereplBytes  *metrics.Counter
	WriteSeconds *metrics.Histogram
	ReadSeconds  *metrics.Histogram
	Failures     *metrics.CounterVec
	ReadRepairs  *metrics.Counter
	HandoffItems *metrics.Counter
	Dropped      *metrics.Counter
	AERounds     *metrics.Counter
	AEBytes      *metrics.Counter
	Expired      *metrics.Counter
	// LocalSets and WalkSets count replica sets by how they were obtained
	// (replica_resolves_total{path}): without a resolve round trip — computed
	// from the ring stretch, or named by the owner on the operation's first
	// request — or by the network resolver's lookup walk.
	LocalSets *metrics.Counter
	WalkSets  *metrics.Counter
}

var quorumBuckets = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}

// NewMetrics registers the replica metrics on reg. A nil registry
// yields private throwaways on an unexported registry, mirroring
// wire.NewRetrier.
func NewMetrics(reg *metrics.Registry) *Metrics {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	resolves := reg.NewCounterVec("replica_resolves_total",
		"Replica sets obtained, by path: local (computed from ring state or named by the owner on the operation itself) or walk (the network resolver: a lookup plus a get_neighbors).", "path")
	return &Metrics{
		LocalSets: resolves.With("local"),
		WalkSets:  resolves.With("walk"),
		Lag: reg.NewGauge("replica_lag",
			"Stale or missing key copies the last anti-entropy round refreshed (items pulled plus items pushed back)."),
		RereplBytes: reg.NewCounter("rereplication_bytes_total",
			"Value bytes pushed to peers by re-replication: anti-entropy push-backs and re-homed foreign keys."),
		WriteSeconds: reg.NewHistogram("quorum_write_seconds",
			"Latency of quorum writes, from replica-set resolution to quorum ack.", quorumBuckets),
		ReadSeconds: reg.NewHistogram("quorum_read_seconds",
			"Latency of quorum reads, from replica-set resolution to quorum answer.", quorumBuckets),
		Failures: reg.NewCounterVec("quorum_failures_total",
			"Operations that failed to assemble a quorum.", "op"),
		ReadRepairs: reg.NewCounter("read_repairs_total",
			"Stale or missing replicas refreshed by quorum reads."),
		HandoffItems: reg.NewCounter("replica_handoff_items_total",
			"Versioned items transferred by graceful-leave handoffs."),
		Dropped: reg.NewCounter("replica_dropped_total",
			"Keys dropped locally after an anti-entropy round confirmed every current replica-set member holds them."),
		AERounds: reg.NewCounter("antientropy_rounds_total",
			"Digest-based anti-entropy rounds completed."),
		AEBytes: reg.NewCounter("antientropy_bytes_total",
			"Bytes moved by anti-entropy rounds: digest frames plus pulled and pushed divergent items."),
		Expired: reg.NewCounter("kv_expired_total",
			"Items (values and tombstones) purged locally after passing their expiry stamp."),
	}
}

// Coordinator drives quorum writes, quorum reads with read-repair, and
// anti-entropy rounds against an Engine. It issues replica-set RPCs
// through Call; it never takes locks across those calls (the Engine
// locks only around its own map operations).
type Coordinator struct {
	Self    string
	Opts    Options
	Engine  *Engine
	Resolve ResolveFunc
	Call    CallFunc
	Metrics *Metrics

	// Neighbors and OwnerRead are the local sources of replica sets: the
	// first serves anti-entropy (every key of the node's ring stretch, no
	// RPC per key), the second the quorum operations (the owner names the
	// set on the operation's first request). Both are optional and both fall
	// back to Resolve, the only source a Coordinator without them has.
	Neighbors NeighborsFunc
	OwnerRead OwnerReadFunc

	// KeyID maps a kv key to its ring identifier — the same mapping the
	// transport's lookups use — so anti-entropy can describe held data
	// as key-ID arcs. Required for AntiEntropyOnce.
	KeyID func(key string) [20]byte
	// TTL is the lifetime stamped onto coordinated writes, on the
	// Engine's clock (0 = items never expire). Tombstones reuse it as
	// their garbage-collection grace period, which must exceed the
	// cluster's convergence time or a delete can be forgotten before
	// every replica learns it.
	TTL time.Duration
}

// expireStamp computes the Expire field for a write coordinated now.
func (c *Coordinator) expireStamp() uint64 {
	if c.TTL == 0 {
		return 0
	}
	return c.Engine.Now() + uint64(c.TTL)
}

func (c *Coordinator) metrics() *Metrics {
	if c.Metrics == nil {
		c.Metrics = NewMetrics(nil)
	}
	return c.Metrics
}

// Put performs one quorum write: locate the key's replica set, have the
// owner stamp the value past the version it holds as it installs it, and
// install that stamp on every other member, acknowledging once
// WriteQuorum members (clamped to the set size) accepted it. Failing members are tolerated
// as long as the quorum holds; anti-entropy re-replicates to them later.
func (c *Coordinator) Put(ctx context.Context, key string, value []byte) error {
	err := c.write(ctx, "put", wire.StoreItem{Key: key, Value: value})
	if err != nil {
		c.metrics().Failures.With("put").Inc()
	}
	return err
}

// Delete performs one quorum delete: a tombstone item is stamped by the
// owner past the version it holds and installed on every replica-set
// member under the same quorum rule as Put. The tombstone
// supersedes live versions through the normal LWW order, so a stale
// replica that missed the delete cannot resurrect the key; it is
// garbage-collected TTL after the delete (and kept forever when TTL is
// 0, trading space for a delete that can never be forgotten).
func (c *Coordinator) Delete(ctx context.Context, key string) error {
	err := c.write(ctx, "delete", wire.StoreItem{Key: key, Tombstone: true})
	if err != nil {
		c.metrics().Failures.With("delete").Inc()
	}
	return err
}

// write is the quorum write under Put and Delete: it stamps item (a
// value or a tombstone) and installs it on the key's replica set. op
// names the caller in errors. Counting the failure is the caller's, so
// the metric label stays a constant and costs nothing on success.
//
// The first exchange installs the write at the owner: an ownership-checked
// store_put the owner stamps past what it holds (Engine.ApplyPast), whose
// reply is an ack and the stamp for the other members. If set[0] refuses
// or is unreachable, the write is stamped past what it reported and put to
// every member.
func (c *Coordinator) write(ctx context.Context, op string, item wire.StoreItem) error {
	start := time.Now()
	opts := c.Opts.WithDefaults()
	key := item.Key
	item.Version, item.Writer = c.Engine.Stamp(key, c.Self, 0)
	item.Expire = c.expireStamp()
	first := wire.Request{Type: wire.TStorePut, Name: key, Layer: 1, Items: []wire.StoreItem{item}}
	set, atOwner, asked, err := c.locate(ctx, first)
	if err != nil {
		return fmt.Errorf("replica %s %q: resolve: %w", op, key, err)
	}
	if len(set) == 0 {
		return fmt.Errorf("replica %s %q: empty replica set", op, key)
	}
	var lastErr error
	if !asked {
		atOwner, lastErr = c.Call(ctx, set[0], first)
		asked = lastErr == nil && atOwner.Owner
	}
	acks, rest := 0, set
	if asked {
		item.Version = atOwner.Version
		acks, rest = 1, set[1:]
	} else {
		item.Version, item.Writer = c.Engine.Stamp(key, c.Self, atOwner.Version)
	}

	need := opts.WriteQuorum
	if need > len(set) {
		need = len(set)
	}
	req := wire.Request{Type: wire.TStorePut, Name: key, Items: []wire.StoreItem{item}}
	for _, addr := range rest { // ring order: the order Get polls in
		if _, callErr := c.Call(ctx, addr, req); callErr != nil {
			lastErr = callErr
			continue
		}
		acks++
	}
	if acks < need {
		return fmt.Errorf("replica %s %q: %d/%d acks (need %d): %w", op, key, acks, len(set), need, lastErr)
	}
	c.metrics().WriteSeconds.Observe(time.Since(start).Seconds()) // latency is wall time, never protocol time
	return nil
}

// Get performs one quorum read: poll replica-set members in ring
// order, require ReadQuorum answers (clamped to the set size), and
// return the freshest item seen. Members that answered stale or
// missing are read-repaired with the winning item. A clean "not
// found" needs every member to answer empty; when some members are
// unreachable and nothing was found, Get reports an error so callers
// cannot mistake a partition for an empty key.
func (c *Coordinator) Get(ctx context.Context, key string) ([]byte, bool, error) {
	m := c.metrics()
	start := time.Now()
	opts := c.Opts.WithDefaults()
	set, atOwner, asked, err := c.locate(ctx, wire.Request{Type: wire.TStoreGet, Name: key, Layer: 1})
	if err != nil {
		m.Failures.With("get").Inc()
		return nil, false, fmt.Errorf("replica get %q: resolve: %w", key, err)
	}
	if len(set) == 0 {
		m.Failures.With("get").Inc()
		return nil, false, fmt.Errorf("replica get %q: empty replica set", key)
	}
	need := opts.ReadQuorum
	if need > len(set) {
		need = len(set)
	}

	var best wire.StoreItem
	found := false
	answers := 0
	held := map[string]wire.StoreItem{} // answered members that found the key
	var buf [8]string
	polled := buf[:0] // answered members in poll order
	var lastErr error
	for i, addr := range set {
		resp, callErr := atOwner, error(nil) // the owner's answer may already be in hand
		if i > 0 || !asked {
			resp, callErr = c.Call(ctx, addr, wire.Request{Type: wire.TStoreGet, Name: key})
		}
		if callErr != nil {
			lastErr = callErr
			continue
		}
		answers++
		polled = append(polled, addr)
		if resp.Found {
			it := wire.StoreItem{Key: key, Value: resp.Value, Version: resp.Version, Writer: resp.Writer,
				Expire: resp.Expire, Tombstone: resp.Tombstone}
			held[addr] = it
			if !found || Supersedes(it, best) {
				best = it
				found = true
			}
		}
		if found && answers >= need {
			break
		}
	}

	if !found {
		if answers < len(set) {
			m.Failures.With("get").Inc()
			return nil, false, fmt.Errorf("replica get %q: %d/%d members answered, none held it: %w",
				key, answers, len(set), lastErr)
		}
		return nil, false, nil // unanimous: the key does not exist
	}
	if answers < need {
		m.Failures.With("get").Inc()
		return nil, false, fmt.Errorf("replica get %q: %d/%d answers (need %d): %w",
			key, answers, len(set), need, lastErr)
	}
	// A dead winner — tombstone or past its expiry stamp — reads as
	// "not found", but it is positive evidence: a fresher tombstone
	// outranking every live version means the key is deleted, no matter
	// how many members were unreachable. The read-repair below still
	// pushes it so stale members converge on the delete instead of
	// resurrecting the key on a later read.
	alive := Alive(best, c.Engine.Now())
	// Read-repair: refresh answered members that lack the winner.
	var repair wire.Request
	for _, addr := range polled {
		if it, ok := held[addr]; ok && it.Version == best.Version && it.Writer == best.Writer {
			continue
		}
		if repair.Items == nil {
			repair = wire.Request{Type: wire.TStorePut, Name: key, Items: []wire.StoreItem{best}}
		}
		if resp, repErr := c.Call(ctx, addr, repair); repErr == nil && resp.Applied > 0 {
			m.ReadRepairs.Inc()
		}
	}
	m.ReadSeconds.Observe(time.Since(start).Seconds())
	if !alive {
		return nil, false, nil
	}
	return best.Value, true, nil
}
