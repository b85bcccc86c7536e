// Package kv layers a file-location service over the HIERAS overlay: the
// use case motivating the paper ("the node returns the location
// information of the requested file to the originator"). It is the
// oracle-side façade of the replicated KV: routing costs come from the
// overlay oracle, while storage semantics — versioned last-writer-wins
// items, replica sets on the owner's successor list, quorum accounting
// and read-repair — are the ones internal/replica implements for the
// live stack, so simulation results and the wire protocol agree on what
// a replicated put or get means.
package kv

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/replica"
	"repro/internal/wire"
)

// Store is a DHT key-value store over an oracle-built overlay. Each
// overlay node holds a replica.Engine — the same versioned store a live
// node runs — and every value lives on the key owner's replica set. It
// is safe for concurrent use.
type Store struct {
	o    *core.Overlay
	opts replica.Options

	mu     sync.RWMutex
	stores []*replica.Engine // per overlay node
	down   []bool
}

// New creates a store replicating each value on the owner plus `replicas`
// successors — a replication factor of replicas+1, with the default
// majority write quorum and single-answer read quorum for that factor.
func New(o *core.Overlay, replicas int) (*Store, error) {
	if replicas < 0 {
		return nil, fmt.Errorf("kv: negative replica count %d", replicas)
	}
	stores := make([]*replica.Engine, o.N())
	for i := range stores {
		stores[i] = replica.NewEngine()
	}
	return &Store{
		o:      o,
		opts:   replica.Options{Factor: replicas + 1}.WithDefaults(),
		stores: stores,
		down:   make([]bool, o.N()),
	}, nil
}

// CostReport accounts one operation's routing effort and quorum outcome.
type CostReport struct {
	Hops    int
	Latency float64
	// Fallbacks counts replica nodes tried after the primary (reads only).
	Fallbacks int
	// Nodes are the overlay node indexes written (puts only).
	Nodes []int
	// Acks counts replica-set members that accepted the write (puts) or
	// answered the poll (gets).
	Acks int
	// Quorum reports whether the operation reached its configured
	// quorum (write quorum for puts, read quorum for gets).
	Quorum bool
	// Version is the stamp the winning item carries: the stamp a put
	// installed, or the freshest one a get returned.
	Version uint64
	// Repairs counts stale or missing replicas refreshed by read-repair
	// (gets only).
	Repairs int
}

// keyID maps an application key to the identifier space.
func keyID(key string) id.ID { return core.KeyID(key) }

// targets returns the key owner's replica set as overlay node indexes:
// the owner first, then its successors in list order, factor members in
// total (fewer on tiny overlays).
func (s *Store) targets(owner int) []int {
	succs := s.o.Global().SuccessorList(owner, s.opts.Factor-1)
	out := make([]int, 0, 1+len(succs))
	out = append(out, owner)
	out = append(out, succs...)
	return out
}

// Put routes from origin to the key's owner, stamps the value past the
// freshest version held by the replica set, and installs it on every
// live member. The put is acknowledged when at least one copy landed;
// CostReport.Quorum reports whether the configured write quorum was
// reached.
func (s *Store) Put(origin int, key string, value []byte) (CostReport, error) {
	if origin < 0 || origin >= s.o.N() {
		return CostReport{}, fmt.Errorf("kv: origin %d out of range", origin)
	}
	res := s.o.RouteTotals(origin, keyID(key))
	rep := CostReport{Hops: res.Hops, Latency: res.Latency}
	s.mu.Lock()
	defer s.mu.Unlock()
	targets := s.targets(res.Dest)
	var seen uint64
	for _, n := range targets {
		if s.down[n] {
			continue
		}
		if it, ok := s.stores[n].Get(key); ok && it.Version > seen {
			seen = it.Version
		}
	}
	version, writer := s.stores[origin].Stamp(key, fmt.Sprintf("n%d", origin), seen)
	item := wire.StoreItem{Key: key, Value: append([]byte(nil), value...), Version: version, Writer: writer}
	rep.Version = version
	for _, n := range targets {
		if s.down[n] {
			continue
		}
		s.stores[n].Apply(item)
		rep.Nodes = append(rep.Nodes, n)
		rep.Acks++
	}
	need := s.opts.WriteQuorum
	if need > len(targets) {
		need = len(targets)
	}
	rep.Quorum = rep.Acks >= need
	if rep.Acks == 0 {
		return rep, fmt.Errorf("kv: no live node available to store %q", key)
	}
	return rep, nil
}

// Get routes from origin to the key's owner and polls the replica set in
// ring order until the read quorum answered and a copy was found,
// falling back along the successor list when nodes are down or missing
// the key. Each fallback adds one extra hop's latency. The freshest item
// wins, and members that answered stale or missing are read-repaired
// with it before returning.
func (s *Store) Get(origin int, key string) ([]byte, CostReport, error) {
	if origin < 0 || origin >= s.o.N() {
		return nil, CostReport{}, fmt.Errorf("kv: origin %d out of range", origin)
	}
	res := s.o.RouteTotals(origin, keyID(key))
	rep := CostReport{Hops: res.Hops, Latency: res.Latency}
	s.mu.RLock()
	defer s.mu.RUnlock()
	candidates := s.targets(res.Dest)
	need := s.opts.ReadQuorum
	if need > len(candidates) {
		need = len(candidates)
	}
	var best wire.StoreItem
	found := false
	var polled []int
	prev := res.Dest
	for i, n := range candidates {
		if i > 0 {
			rep.Fallbacks++
			rep.Hops++
			rep.Latency += s.o.Network().Latency(s.o.Node(prev).Host, s.o.Node(n).Host)
			prev = n
		}
		if s.down[n] {
			continue
		}
		rep.Acks++
		polled = append(polled, n)
		if it, ok := s.stores[n].Get(key); ok {
			if !found || replica.Supersedes(it, best) {
				best = it
				found = true
			}
		}
		if found && rep.Acks >= need {
			break
		}
	}
	if !found {
		return nil, rep, fmt.Errorf("kv: key %q not found", key)
	}
	rep.Quorum = rep.Acks >= need
	rep.Version = best.Version
	for _, n := range polled {
		if it, ok := s.stores[n].Get(key); ok && it.Version == best.Version && it.Writer == best.Writer {
			continue
		}
		if s.stores[n].Apply(best) {
			rep.Repairs++
		}
	}
	out := make([]byte, len(best.Value))
	copy(out, best.Value)
	return out, rep, nil
}

// Delete removes the key from the owner and every replica. The oracle
// store keeps no tombstones: a delete concurrent with a put is resolved
// by whichever the caller issues last.
func (s *Store) Delete(origin int, key string) (CostReport, error) {
	if origin < 0 || origin >= s.o.N() {
		return CostReport{}, fmt.Errorf("kv: origin %d out of range", origin)
	}
	res := s.o.RouteTotals(origin, keyID(key))
	rep := CostReport{Hops: res.Hops, Latency: res.Latency}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range s.targets(res.Dest) {
		s.stores[n].Drop(key)
	}
	return rep, nil
}

// MarkDown simulates a node failure: the node stops answering reads and
// receiving writes (its stored data is considered lost).
func (s *Store) MarkDown(node int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if node >= 0 && node < len(s.down) {
		s.down[node] = true
		s.stores[node] = replica.NewEngine()
	}
}

// MarkUp revives a node (empty, as a rejoined node would be).
func (s *Store) MarkUp(node int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if node >= 0 && node < len(s.down) {
		s.down[node] = false
	}
}

// KeysAt reports how many keys node i currently stores.
func (s *Store) KeysAt(i int) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stores[i].Len()
}

// TotalKeys reports the number of (node, key) pairs stored system-wide.
func (s *Store) TotalKeys() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := 0
	for _, e := range s.stores {
		total += e.Len()
	}
	return total
}
