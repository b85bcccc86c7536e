// Package wire defines the message protocol spoken by live HIERAS nodes
// (package transport): a request/response scheme carried as tagged,
// length-prefixed frames over persistent connections. A connection opens
// with a fixed preamble naming the protocol version and envelope format
// (the zero-alloc Binary codec) and then multiplexes many in-flight
// exchanges, matched by tag — so the hot path pays no dial, no handshake
// and no serialization reflection per call. Lookup traffic
// stays client-driven and iterative, and handlers never issue outgoing
// RPCs, so node handlers remain trivially deadlock-free.
//
// The call surface is context-first: deadlines and cancellation flow
// from the caller through Caller.Call(ctx, addr, req) instead of fixed
// per-dial timeouts. Pool provides the client, Serve the server.
package wire

import (
	"context"
	"fmt"
	"net"
	"time"
)

// MsgType enumerates the protocol operations.
type MsgType uint8

const (
	// TPing checks liveness (and lets probers measure RTT).
	TPing MsgType = iota + 1
	// TGetInfo returns the node's identifier, ring names, landmark list
	// and virtual coordinates.
	TGetInfo
	// TFindClosest executes one iterative routing step in a given layer.
	TFindClosest
	// TGetNeighbors returns a layer's successor list and predecessor.
	TGetNeighbors
	// TNotify tells a node about a possible predecessor in a layer.
	TNotify
	// TGetRingTable fetches the ring table for a ring name and layer.
	TGetRingTable
	// TPutRingTable stores/updates a ring table.
	TPutRingTable
	// 8 and 9 were the unversioned put and get, retired once the
	// replicated store took over. They stay reserved, so every later type
	// keeps its number on the wire.
	_
	_
	// TLeaveSucc tells a departing node's successor to adopt the
	// departing node's predecessor.
	TLeaveSucc
	// TLeavePred tells a departing node's predecessor to adopt the
	// departing node's successor list.
	TLeavePred
	// TEvict reports a dead peer: the receiver purges it from the given
	// layer's fingers, successor list and predecessor (Chord's timeout
	// handling, driven by the iterative client).
	TEvict
	// TStorePut installs one versioned replica item (Items[0]) into the
	// receiver's store; the write is a version-guarded merge, so replays
	// are no-ops. With Layer set to 1 it is a write's first exchange,
	// ownership-checked: a receiver that owns the key on the global ring
	// raises the item's version past the one it holds, installs it, and
	// replies Owner, Succ (as for TStoreGet) and the installed Version;
	// any other receiver installs nothing and replies its held Version.
	TStorePut
	// TStoreGet reads a key's versioned item from the receiving node. With
	// Layer set to 1 the read is ownership-checked: the receiver answers
	// only if it owns the key on the global ring, and then sets Owner and
	// lists in Succ the successors that complete the key's replica set; a
	// receiver that does not own the key replies with neither and nothing
	// about the key.
	TStoreGet
	// TReplicate merges a batch of versioned items into the receiver's
	// store — the re-replication/republish path of the stabilize sweep.
	TReplicate
	// THandoff transfers a departing node's versioned items to its
	// successor in one batch.
	THandoff
	// TDigest asks a replica-set member for its per-bucket range digest
	// over the key-ID arc (Key, KeyHi]: DigestBuckets XOR-folded item
	// hashes covering (key, version, writer, expire, tombstone). Equal
	// digests mean the bucket needs no transfer; the anti-entropy round
	// pulls only divergent buckets.
	TDigest
	// TSyncPull fetches the receiver's full items for the divergent
	// buckets of a range digest: the arc (Key, KeyHi] filtered to the
	// bucket indexes listed in Buckets.
	TSyncPull
	// TRouteGossip reconciles the one-hop route tables of two nodes. The
	// request carries a summary of the sender's event set (Request.Key)
	// and the events it has reason to think the receiver lacks
	// (Request.Events; none in the probe that opens an exchange). The
	// receiver merges them (newest stamp wins) and replies Found when its
	// table then has the same summary, else with the events it knows that
	// the request did not supersede (Response.Events). The merge is a
	// join-semilattice, so replays and reordering are no-ops.
	TRouteGossip

	// numMsgTypes is one past the last operation: the size of a table
	// indexed by MsgType. It is an int, not a MsgType, so it is no
	// operation to classify (see Idempotent).
	numMsgTypes int = iota + 1
)

func (m MsgType) String() string {
	switch m {
	case TPing:
		return "ping"
	case TGetInfo:
		return "get_info"
	case TFindClosest:
		return "find_closest"
	case TGetNeighbors:
		return "get_neighbors"
	case TNotify:
		return "notify"
	case TGetRingTable:
		return "get_ring_table"
	case TPutRingTable:
		return "put_ring_table"
	case TLeaveSucc:
		return "leave_succ"
	case TLeavePred:
		return "leave_pred"
	case TEvict:
		return "evict"
	case TStorePut:
		return "store_put"
	case TStoreGet:
		return "store_get"
	case TReplicate:
		return "replicate"
	case THandoff:
		return "handoff"
	case TDigest:
		return "digest"
	case TSyncPull:
		return "sync_pull"
	case TRouteGossip:
		return "route_gossip"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(m))
	}
}

// Peer is a (address, identifier) pair.
type Peer struct {
	Addr string
	ID   [20]byte
}

// StoreItem is one versioned key/value replica. Version orders writes of
// the same key (last-writer-wins); Writer breaks version ties with a
// total order, so two replicas holding the same (Version, Writer) are
// guaranteed to hold the same value and merges are deterministic.
//
// Expire and Tombstone give items a lifecycle that converges under
// replication: Expire is an absolute clock stamp (0 = never) that
// travels with the item, so every replica retires it at the same
// instant instead of each restarting a relative TTL; Tombstone marks a
// delete that supersedes live versions through the normal LWW order, so
// a stale replica cannot resurrect a deleted key.
type StoreItem struct {
	Key       string
	Value     []byte
	Version   uint64
	Writer    string // unique per write: "coordinatorAddr#seq"
	Expire    uint64 // absolute expiry stamp, 0 = never expires
	Tombstone bool   // a delete marker, not a value
}

// Route event kinds, ordered so that at an equal stamp the departure
// outranks the join: a tombstone observed concurrently with a join wins
// the merge, and the (re)joining node re-announces with a fresher stamp.
const (
	RouteJoin  uint8 = 0 // the peer is a live member of the ring
	RouteLeave uint8 = 1 // the peer departed gracefully
	RouteEvict uint8 = 2 // the peer was evicted as dead
)

// RouteEvent is one membership fact for the gossip-maintained one-hop
// route tables: peer Peer joined/left/was evicted from ring (Layer,
// Ring) at logical stamp Stamp. Stamps are per-(layer, ring, peer)
// monotonic; mergers keep the highest stamp, breaking ties toward the
// higher Kind, so event sets converge regardless of delivery order.
type RouteEvent struct {
	Layer int
	Ring  string
	Peer  Peer
	Kind  uint8
	Stamp uint64
}

// RingTable is the on-the-wire form of a lower ring's boundary table.
type RingTable struct {
	Layer    int
	Name     string
	Smallest Peer
	SecondSm Peer
	Largest  Peer
	SecondLg Peer
}

// Request is the single request envelope; fields are used per Type.
type Request struct {
	Type  MsgType
	Layer int      // TFindClosest, TGetNeighbors, TNotify: ring layer (1 = global); TStoreGet, TStorePut: 1 = ownership-checked
	Key   [20]byte // TFindClosest: routing target; TRouteGossip: the sender's table summary, first 8 bytes
	Name  string   // ring name or kv key
	Peer  Peer     // TNotify: candidate predecessor; TLeaveSucc: new predecessor; TEvict: the dead peer
	Peers []Peer   // TLeavePred: the departing node's successor list
	Table RingTable
	Items []StoreItem // TStorePut: the single item; TReplicate/THandoff: a batch
	// TDigest/TSyncPull: the key-ID arc (Key, KeyHi] being synced; Key
	// doubles as the arc's exclusive lower bound. Key == KeyHi covers the
	// whole ring.
	KeyHi [20]byte
	// TSyncPull: divergent bucket indexes (into DigestBuckets) to pull.
	Buckets []uint32
	// TRouteGossip: membership events pushed to the receiver; empty in a probe.
	Events []RouteEvent
	// Hierarchical marks a TFindClosest step of a multi-layer routing
	// procedure: the handler applies the paper's destination check against
	// the GLOBAL ring (is this node the key's owner?) instead of the
	// ring-local successor shortcut used by join-time walks.
	Hierarchical bool
}

// Response is the single response envelope.
type Response struct {
	OK  bool
	Err string

	// TFindClosest:
	Next  Peer // next hop (or the owner when Done)
	Done  bool // the queried node precedes the key in this layer
	Owner bool // the queried node itself owns the key

	// TGetInfo / TGetNeighbors:
	Self      Peer
	RingNames []string
	Landmarks []string
	Coord     [2]float64
	Succ      []Peer
	Pred      Peer

	// TGetRingTable:
	Table RingTable
	Found bool

	// TStoreGet: the stored item's value.
	Value []byte

	// TStoreGet: the stored item's version stamp (Found reports presence).
	// Ownership-checked TStorePut: the version installed, or held.
	// TStorePut/TReplicate/THandoff: Applied counts items that advanced
	// the receiver's store (replayed items merge to zero).
	Version uint64
	Writer  string
	Applied int

	// TStoreGet: the stored item's lifecycle stamps, so quorum readers
	// can propagate tombstones and expiry by read-repair instead of
	// resurrecting deleted keys.
	Expire    uint64
	Tombstone bool

	// TDigest: per-bucket XOR digests over the requested arc.
	Digests []uint64
	// TSyncPull: the receiver's items in the requested buckets.
	Items []StoreItem

	// TRouteGossip: events the receiver knows that beat or are absent
	// from the request's set; none when Found reports equal summaries.
	// Applied counts request events that advanced the receiver's table.
	Events []RouteEvent
}

// DefaultTimeout bounds a call whose context carries no deadline. Every
// layer that needs a time bound (dials, pooled frame writes, retry
// attempts) falls back to it, so a background-context call can never
// hang forever.
const DefaultTimeout = 3 * time.Second

// Caller abstracts one RPC exchange with a peer. The deadline and
// cancellation come from ctx: a context with no deadline is bounded by
// DefaultTimeout at whatever layer performs I/O. The pooled transport
// (Pool), the instrumented wrapper (Metrics.Wrap), the fault-injecting
// callers of internal/faultnet and the Retrier all implement it, so the
// node stack composes its call chain — retries above injectors,
// injectors above the pool — without knowing the concrete layers.
//
// The deadline contract: a Caller that blocks honours ctx.Deadline(),
// not only ctx.Done(). The Retrier bounds each attempt with a context
// that carries the attempt's deadline but whose Done and Err are the
// parent's (a timer and a Done channel per attempt were a fifth of an
// exchange's garbage), so beneath it Done closes on cancellation alone
// and an implementation that waits on nothing else waits out the whole
// call. Pool arms a timer from Deadline for the one wait it has; a Caller
// that only delegates, or sleeps a bounded time of its own (faultnet's
// delays), owes nothing.
// The retention rule: a Caller must not use ctx after Call returns, for
// the Retrier reuses its pooled attempt contexts as soon as Call returns.
type Caller interface {
	Call(ctx context.Context, addr string, req Request) (Response, error)
}

// CallerFunc adapts a function to the Caller interface.
type CallerFunc func(ctx context.Context, addr string, req Request) (Response, error)

// Call implements Caller.
func (f CallerFunc) Call(ctx context.Context, addr string, req Request) (Response, error) {
	return f(ctx, addr, req)
}

// DialFunc opens a transport connection to a peer address. The default
// is TCP (net.DialTimeout); in-process harnesses substitute MemNet.Dial
// so clusters get deterministic addresses and zero kernel round trips.
type DialFunc func(addr string, timeout time.Duration) (net.Conn, error)

// tcpDial is the default DialFunc.
func tcpDial(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

// frameHole reserves header space in an encode buffer; putFrameHeader
// fills it once the payload length is known.
var frameHole [frameHeader]byte
