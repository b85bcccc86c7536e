// Package faultnet is a deterministic fault-injection layer for the live
// node stack: a wire.Caller decorator that drops requests, drops replies,
// injects error replies, delays calls and partitions the network
// according to seeded, composable rules, so multi-node in-process
// clusters can be tested under reproducible chaos.
//
// Determinism does not come from a shared sequential RNG (whose draw
// order would depend on goroutine scheduling) but from hashing
// (seed, src, dst, msg type, per-edge call sequence, rule index): the
// n-th call on a given edge always meets the same fate, regardless of
// how calls on different edges interleave. Peers are named by their
// addresses, so a cluster whose nodes listen under fixed names and issue
// the same calls in the same order — a driven cluster on
// transport.DirectNet — injects the same faults on every run.
package faultnet

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// Kind labels one injected fault.
type Kind string

const (
	// KindDrop loses the request before it reaches the peer (the inner
	// call never happens; retry-safe for every message type).
	KindDrop Kind = "drop"
	// KindDropReply executes the call but loses the response, so the
	// peer HAS applied the request — the case idempotency-aware retry
	// policies exist for.
	KindDropReply Kind = "drop_reply"
	// KindErrReply answers with an injected application-level error
	// (wire.RemoteError), which must never be retried.
	KindErrReply Kind = "err_reply"
	// KindDelay waits on the network's clock before the call proceeds
	// (slow peer / congested link).
	KindDelay Kind = "delay"
	// KindPartition blocks a call crossing partition groups.
	KindPartition Kind = "partition"
)

// kindNames is faultnet_injected_total's value set.
var kindNames = []string{string(KindDrop), string(KindDropReply), string(KindErrReply), string(KindDelay), string(KindPartition)}

// Rule matches a subset of calls and assigns fault probabilities to
// them. Zero-valued matchers match everything, so Rule{Drop: 0.2} makes
// every call in the network 20% flaky, Rule{Dst: "n3", Delay: 5ms} makes
// n3 a slow peer, and Rule{Dst: "n1", Type: wire.TFindClosest, ErrReply: 1}
// makes n1 reject every routing step.
type Rule struct {
	Src, Dst    string        // peer addresses; "" matches any
	Type        wire.MsgType  // 0 matches any message type
	Drop        float64       // P(request lost before the peer)
	DropReply   float64       // P(reply lost after the peer applied the request)
	ErrReply    float64       // P(injected remote application error)
	Delay       time.Duration // fixed added latency
	DelayJitter time.Duration // extra latency, uniform in [0, DelayJitter)
}

func (r Rule) matches(src, dst string, t wire.MsgType) bool {
	return (r.Src == "" || r.Src == src) &&
		(r.Dst == "" || r.Dst == dst) &&
		(r.Type == 0 || r.Type == t)
}

// Event records one injected fault, in injection order.
type Event struct {
	Seq  int // global injection sequence number
	Src  string
	Dst  string
	Type wire.MsgType
	Kind Kind
}

func (e Event) String() string {
	return fmt.Sprintf("%d %s->%s %s %s", e.Seq, e.Src, e.Dst, e.Type, e.Kind)
}

// Network holds the fault rules and deterministic decision state shared
// by all callers of one simulated deployment.
type Network struct {
	mu      sync.Mutex
	seed    int64
	rules   []Rule
	groups  map[string]int // peer -> partition group; nil = whole
	edgeSeq map[string]uint64
	events  []Event
	counts  map[Kind]int

	injected *metrics.CounterVec

	clock wire.Clock // what KindDelay waits on
}

// New creates a fault network with the given decision seed whose delays
// wait on clock, the clock its nodes run on: under a wire.ManualClock a
// delay costs no wall time. Which calls are delayed is the seeded rule
// engine's decision either way.
func New(seed int64, clock wire.Clock) *Network {
	return &Network{
		seed:    seed,
		edgeSeq: make(map[string]uint64),
		counts:  make(map[Kind]int),
		clock:   clock,
	}
}

// Instrument registers faultnet_injected_total{kind} on reg so injected
// faults show up in the same /metrics exposition as the retries and
// breaker flips they provoke.
func (nw *Network) Instrument(reg *metrics.Registry) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.injected = reg.NewCounterVec("faultnet_injected_total",
		"Faults injected by the chaos harness, by kind.", "kind", kindNames)
}

// SetRules replaces the rule set.
func (nw *Network) SetRules(rules ...Rule) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.rules = append([]Rule(nil), rules...)
}

// Partition splits the named peers into isolated groups: any call whose
// endpoints sit in different groups is blocked. Peers in no group are
// unaffected.
func (nw *Network) Partition(groups ...[]string) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.groups = make(map[string]int)
	for g, members := range groups {
		for _, name := range members {
			nw.groups[name] = g
		}
	}
}

// Heal removes the partition.
func (nw *Network) Heal() {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.groups = nil
}

// Blocked reports whether a call from src to dst would currently be cut
// by the partition. Invariant checkers use it to decide which consistency
// properties may be asserted: a pair of live nodes that Blocked separates
// is entitled to disagree.
func (nw *Network) Blocked(src, dst string) bool {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.blockedLocked(src, dst)
}

func (nw *Network) blockedLocked(src, dst string) bool {
	if src == dst || nw.groups == nil {
		return false
	}
	gs, oks := nw.groups[src]
	gd, okd := nw.groups[dst]
	return oks && okd && gs != gd
}

// Events returns a copy of the injected-fault sequence so far.
func (nw *Network) Events() []Event {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return append([]Event(nil), nw.events...)
}

// Counts returns per-kind injection totals.
func (nw *Network) Counts() map[Kind]int {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	out := make(map[Kind]int, len(nw.counts))
	for k, v := range nw.counts {
		out[k] = v
	}
	return out
}

// decision is the fate assigned to one call.
type decision struct {
	kind  Kind // "" = deliver untouched (Delay may still apply)
	delay time.Duration
	msg   string // err_reply text
}

// decide rolls the deterministic dice for one call from src to dst.
func (nw *Network) decide(src, dst string, t wire.MsgType) decision {
	if src == dst {
		// A node's loopback calls to itself never cross the network, so
		// they are exempt from fault rules and partitions.
		return decision{}
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	edge := src + "\x00" + dst
	seq := nw.edgeSeq[edge]
	nw.edgeSeq[edge] = seq + 1

	var d decision
	if nw.blockedLocked(src, dst) {
		nw.recordLocked(src, dst, t, KindPartition)
		d.kind = KindPartition
		return d
	}
	for i, r := range nw.rules {
		if !r.matches(src, dst, t) {
			continue
		}
		if r.Delay > 0 || r.DelayJitter > 0 {
			extra := r.Delay
			if r.DelayJitter > 0 {
				extra += time.Duration(nw.roll(src, dst, t, seq, i, 3) * float64(r.DelayJitter))
			}
			d.delay += extra
			nw.recordLocked(src, dst, t, KindDelay)
		}
		if r.Drop > 0 && nw.roll(src, dst, t, seq, i, 0) < r.Drop {
			nw.recordLocked(src, dst, t, KindDrop)
			d.kind = KindDrop
			return d
		}
		if r.DropReply > 0 && nw.roll(src, dst, t, seq, i, 1) < r.DropReply {
			nw.recordLocked(src, dst, t, KindDropReply)
			d.kind = KindDropReply
			return d
		}
		if r.ErrReply > 0 && nw.roll(src, dst, t, seq, i, 2) < r.ErrReply {
			nw.recordLocked(src, dst, t, KindErrReply)
			d.kind = KindErrReply
			d.msg = fmt.Sprintf("faultnet: injected error (%s->%s %s)", src, dst, t)
			return d
		}
	}
	return d
}

func (nw *Network) recordLocked(src, dst string, t wire.MsgType, k Kind) {
	nw.events = append(nw.events, Event{Seq: len(nw.events), Src: src, Dst: dst, Type: t, Kind: k})
	nw.counts[k]++
	if nw.injected != nil {
		nw.injected.With(string(k)).Inc()
	}
}

// roll produces the deterministic uniform draw in [0, 1) for one
// (edge, sequence, rule, purpose) tuple.
func (nw *Network) roll(src, dst string, t wire.MsgType, seq uint64, rule, salt int) float64 {
	h := fnv.New64a()
	h.Write([]byte(src))
	h.Write([]byte{0})
	h.Write([]byte(dst))
	h.Write([]byte{0, byte(t)})
	x := h.Sum64() ^ uint64(nw.seed)*0x9e3779b97f4a7c15
	x ^= seq * 0xbf58476d1ce4e5b9
	x ^= uint64(rule)<<8 | uint64(salt)
	return float64(splitmix64(x)>>11) / (1 << 53)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// caller decorates one node's outgoing calls with the network's faults.
type caller struct {
	nw    *Network
	src   string // the owning node's transport address
	inner wire.Caller
}

// Caller returns a wire.Caller that subjects inner's calls (as issued by
// the node listening on srcAddr) to the network's fault rules. Install
// it via transport.Config.WrapCaller so it sits below the retry layer —
// retries are then exercised against the injected faults.
func (nw *Network) Caller(srcAddr string, inner wire.Caller) wire.Caller {
	return &caller{nw: nw, src: srcAddr, inner: inner}
}

var errInjected = fmt.Errorf("faultnet: injected fault")

func (c *caller) Call(ctx context.Context, addr string, req wire.Request) (wire.Response, error) {
	d := c.nw.decide(c.src, addr, req.Type)
	if d.delay > 0 {
		if err := c.nw.clock.Sleep(ctx, d.delay); err != nil {
			return wire.Response{}, &wire.NetError{Addr: addr, Op: "faultnet:delay", Sent: false, Err: err}
		}
	}
	switch d.kind {
	case KindDrop:
		return wire.Response{}, &wire.NetError{Addr: addr, Op: "faultnet:drop", Sent: false, Err: errInjected}
	case KindPartition:
		return wire.Response{}, &wire.NetError{Addr: addr, Op: "faultnet:partition", Sent: false, Err: errInjected}
	case KindErrReply:
		return wire.Response{OK: false, Err: d.msg}, &wire.RemoteError{Type: req.Type, Msg: d.msg}
	}
	resp, err := c.inner.Call(ctx, addr, req)
	if d.kind == KindDropReply && err == nil {
		return wire.Response{}, &wire.NetError{Addr: addr, Op: "faultnet:drop_reply", Sent: true, Err: errInjected}
	}
	return resp, err
}
