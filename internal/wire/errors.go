package wire

import (
	"errors"
	"fmt"
)

// RemoteError is an application-level failure reported by the peer
// (Response.OK == false). The peer is alive and processed the request; a
// RemoteError must never be retried and must never count as evidence that
// the peer is dead.
type RemoteError struct {
	Type MsgType // the request that was rejected
	Msg  string  // the peer's Response.Err text
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("wire: %s: remote error: %s", e.Type, e.Msg)
}

// NetError is a transport-level failure: the dial, send or receive step
// broke before a well-formed response arrived. Sent reports whether any
// request bytes may have reached the peer, which decides whether a
// non-idempotent operation is safe to retry.
type NetError struct {
	Addr string // peer address
	Op   string // "dial", "send", "recv", or an injector-specific label
	Sent bool   // request bytes may have reached the peer
	Err  error
}

func (e *NetError) Error() string {
	return fmt.Sprintf("wire: %s %s: %v", e.Op, e.Addr, e.Err)
}

func (e *NetError) Unwrap() error { return e.Err }

// ErrCircuitOpen is wrapped by calls rejected without dialing because the
// peer's circuit breaker is open. It is not retryable: the breaker's
// cooldown, not a retry loop, decides when the peer is probed again.
var ErrCircuitOpen = errors.New("wire: circuit breaker open")

// CircuitOpenError reports a call rejected by an open breaker.
type CircuitOpenError struct {
	Addr string
}

func (e *CircuitOpenError) Error() string {
	return fmt.Sprintf("wire: %s: circuit breaker open", e.Addr)
}

func (e *CircuitOpenError) Unwrap() error { return ErrCircuitOpen }

// IsRemote reports whether err is an application-level RemoteError.
func IsRemote(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}

// Idempotent reports whether an operation can be repeated safely even
// when a previous attempt may already have been applied by the peer.
// Reads and the eviction notice (purging an address twice is a no-op)
// qualify; state-installing writes (TNotify, TPutRingTable, the
// leave handoffs) are only retried when the request provably never
// reached the peer (NetError.Sent == false).
// The switch is exhaustive over MsgType on purpose: the retrysafe
// analyzer requires every constant to appear in an explicit case, so
// adding an operation without deciding its retry safety fails lint
// rather than silently defaulting to "not idempotent".
func Idempotent(t MsgType) bool {
	switch t {
	case TPing, TGetInfo, TFindClosest, TGetNeighbors, TGetRingTable, TEvict:
		return true
	case TStorePut, TReplicate, THandoff:
		// Version-guarded merges: the receiver applies an item only when
		// its (Version, Writer) stamp strictly exceeds what it holds, so
		// replaying a delivered write is a no-op, not a resurrection; the
		// owner tells a replayed ownership-checked put by its Writer.
		return true
	case TStoreGet:
		return true // plain read
	case TDigest, TSyncPull:
		return true // anti-entropy reads: digests and bucket snapshots
	case TRouteGossip:
		// Stamp-guarded merge: the receiver keeps only events that beat
		// what it holds, so replaying a delivered gossip push is a no-op.
		return true
	case TNotify, TPutRingTable, TLeaveSucc, TLeavePred:
		// State-installing writes: replaying one can resurrect state
		// the ring has already moved past, so these are retried only
		// when the request provably never reached the peer.
		return false
	}
	return false
}

// Retryable decides whether a failed call may be attempted again:
// application errors never, transport errors always when the request
// never left, and otherwise only for idempotent operations.
func Retryable(t MsgType, err error) bool {
	if err == nil {
		return false
	}
	var ne *NetError
	if errors.As(err, &ne) {
		return !ne.Sent || Idempotent(t)
	}
	return false // RemoteError, CircuitOpenError, unknown: don't retry
}
