// Package kv is a file-location service over the HIERAS overlay, the use
// case motivating the paper. It is the oracle's driver of the replicated
// KV: an operation is a replica.Coordinator run at the origin, whose calls
// each addressed node answers in-process with Engine.ServeLocked, the
// coordinator and handler a live node runs; routing costs come from the
// overlay oracle. The overlay is static: a node marked down keeps its
// place in every replica set and refuses its calls, as a crashed node does
// before the ring has evicted it.
package kv

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/wire"
)

// Store is a replicated key-value store over an oracle-built overlay:
// every overlay node holds a replica.Engine. It is safe for concurrent use.
type Store struct {
	o       *core.Overlay
	opts    replica.Options
	metrics *replica.Metrics

	mu     sync.RWMutex
	stores []*replica.Engine // per overlay node
	down   []bool
}

// New creates a store replicating each value on the owner plus `replicas`
// successors, with the default quorums for that factor.
func New(o *core.Overlay, replicas int) (*Store, error) {
	if replicas < 0 {
		return nil, fmt.Errorf("kv: negative replica count %d", replicas)
	}
	s := &Store{o: o, opts: replica.Options{Factor: replicas + 1}.WithDefaults(),
		metrics: replica.NewMetrics(nil), stores: make([]*replica.Engine, o.N()), down: make([]bool, o.N())}
	for i := range s.stores {
		s.stores[i] = replica.NewEngine()
	}
	return s, nil
}

// CostReport accounts one operation's routing effort and replica traffic.
type CostReport struct {
	Hops    int
	Latency float64
	// Fallbacks counts members polled after the routed owner (gets), each
	// one more hop from the member polled before it.
	Fallbacks int
	// Nodes are the overlay nodes that installed the write (puts, deletes).
	Nodes []int
	// Acks counts Nodes (puts, deletes) or the members that answered (gets).
	Acks int
	// Version is the stamp a write installed, or the freshest a get saw.
	Version uint64
	// Repairs counts members a get's read-repair refreshed.
	Repairs int
}

// run routes an operation on key from origin to the key's owner and runs
// f on a coordinator at origin. Its calls are answered in-process at the
// addressed node and booked in the report: a member polled past the routed
// owner costs a hop, a store_put a get sends is a read-repair, and a down
// node refuses as a dead address refuses a dial.
func (s *Store) run(origin int, key string, read bool, f func(context.Context, *replica.Coordinator) error) (CostReport, error) {
	if origin < 0 || origin >= s.o.N() {
		return CostReport{}, fmt.Errorf("kv: origin %d out of range", origin)
	}
	res := s.o.RouteTotals(origin, core.KeyID(key))
	rep, prev, owner := CostReport{Hops: res.Hops, Latency: res.Latency}, res.Dest, strconv.Itoa(res.Dest)
	call := func(_ context.Context, addr string, req wire.Request) (wire.Response, error) {
		n, _ := strconv.Atoi(addr)
		if req.Type == wire.TStoreGet && n != res.Dest {
			rep.Fallbacks++
			rep.Hops++
			rep.Latency += s.o.Network().Latency(s.o.Node(prev).Host, s.o.Node(n).Host)
			prev = n
		}
		s.mu.RLock()
		e, down := s.stores[n], s.down[n]
		s.mu.RUnlock()
		if down {
			return wire.Response{}, &wire.NetError{Addr: addr, Op: "dial", Err: wire.ErrConnRefused}
		}
		wire.Detach(&req)
		var resp wire.Response
		e.ServeLocked(&req, &resp, func(key string) ([]wire.Peer, bool) {
			if s.o.Global().SuccessorIndex(core.KeyID(key)) != n {
				return nil, false
			}
			return s.successors(n), true
		})
		resp, err := wire.Answered(req.Type, resp)
		switch {
		case err != nil:
		case req.Type == wire.TStoreGet:
			rep.Acks++
			rep.Version = max(rep.Version, resp.Version)
		case resp.Applied == 0:
		case read:
			rep.Repairs++
		default: // the owner answers the stamp it installed
			rep.Version = max(rep.Version, resp.Version, req.Items[0].Version)
			if !slices.Contains(rep.Nodes, n) { // a restamped write puts to them again
				rep.Nodes = append(rep.Nodes, n)
				rep.Acks++
			}
		}
		return resp, err
	}
	s.mu.RLock()
	c := &replica.Coordinator{Self: strconv.Itoa(origin), Opts: s.opts, Engine: s.stores[origin], Metrics: s.metrics,
		Call: call,
		OwnerRead: func(ctx context.Context, first wire.Request) (string, wire.Response, bool) {
			resp, err := call(ctx, owner, first)
			return owner, resp, err == nil && resp.Owner
		},
		Resolve: func(context.Context, string) ([]string, error) {
			return replica.ReplicaSet(nil, owner, s.successors(res.Dest), s.opts.Factor), nil
		},
	}
	s.mu.RUnlock()
	if err := f(context.Background(), c); err != nil { //lint:allow ctxflow the store's API is ctx-less and its calls are in-process: nothing to cancel
		return rep, fmt.Errorf("kv: %w", err)
	}
	return rep, nil
}

// successors returns node i's replica successors.
func (s *Store) successors(i int) []wire.Peer {
	var succ []wire.Peer
	for _, n := range s.o.Global().SuccessorList(i, s.opts.Factor-1) {
		succ = append(succ, wire.Peer{Addr: strconv.Itoa(n)})
	}
	return succ
}

// Put runs a quorum write of value at the key's owner: the owner stamps it
// past the version it holds, and the rest of the replica set installs that
// stamp. It fails when fewer than the write quorum installed it.
func (s *Store) Put(origin int, key string, value []byte) (CostReport, error) {
	return s.run(origin, key, false, func(ctx context.Context, c *replica.Coordinator) error {
		return c.Put(ctx, key, value)
	})
}

// Get runs a quorum read: members are polled in ring order, past those
// down or missing the key, until the read quorum answered and a copy was
// found. The freshest copy wins and is read-repaired onto the members that
// answered stale or missing.
func (s *Store) Get(origin int, key string) (value []byte, rep CostReport, err error) {
	rep, err = s.run(origin, key, true, func(ctx context.Context, c *replica.Coordinator) (getErr error) {
		value, getErr = c.Get(ctx, key)
		return getErr
	})
	return value, rep, err
}

// Delete runs a quorum write of a tombstone, which outranks every older
// copy, so a replica that missed the delete cannot resurrect the key.
func (s *Store) Delete(origin int, key string) (CostReport, error) {
	return s.run(origin, key, false, func(ctx context.Context, c *replica.Coordinator) error {
		return c.Delete(ctx, key)
	})
}

// MarkDown fails a node: it refuses every call and loses its data.
func (s *Store) MarkDown(node int) { s.mark(node, true) }

// MarkUp revives a node, empty, as a rejoined node would be.
func (s *Store) MarkUp(node int) { s.mark(node, false) }

func (s *Store) mark(node int, down bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if node >= 0 && node < len(s.down) {
		s.down[node] = down
		if down {
			s.stores[node] = replica.NewEngine()
		}
	}
}

// KeysAt reports how many keys, tombstones included, node i stores.
func (s *Store) KeysAt(i int) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stores[i].Len()
}

// TotalKeys reports the (node, key) pairs stored, tombstones included.
func (s *Store) TotalKeys() int {
	total := 0
	for i := range s.stores {
		total += s.KeysAt(i)
	}
	return total
}
