package wire

import (
	"context"
	"net"
	"time"

	"repro/internal/metrics"
)

// AllMsgTypes lists every protocol operation, so instrumentation can
// pre-curry per-type child metrics once instead of formatting label
// values on the hot path. It is generated from the constant block's end
// marker, less the two reserved numbers, so a new operation cannot be
// left out.
var AllMsgTypes = func() []MsgType {
	all := make([]MsgType, 0, numMsgTypes-3)
	for t := TPing; int(t) < numMsgTypes; t++ {
		if t != TPutRingTable+1 && t != TPutRingTable+2 {
			all = append(all, t)
		}
	}
	return all
}()

// msgTypeChild is each type's position in AllMsgTypes plus one, 0 for a
// type it does not list: the child a per-type family keeps for it.
var msgTypeChild = func() (at [numMsgTypes]uint8) {
	for i, t := range AllMsgTypes {
		at[t] = uint8(i + 1)
	}
	return at
}()

// msgTypeNames is AllMsgTypes' label values, in the same order: every
// node's per-type families enumerate this one slice.
var msgTypeNames = func() []string {
	names := make([]string, len(AllMsgTypes))
	for i, t := range AllMsgTypes {
		names[i] = t.String()
	}
	return names
}()

// Metrics instruments the wire protocol against a metrics registry:
// per-MsgType request and error counts for both the client and server
// roles, total bytes in/out, and a call-latency histogram. One Metrics
// belongs to one registry (and, in practice, one node). It is a set of
// seams, matching the redesigned call path: Wrap instruments a Caller
// (whatever pool/retrier stack sits beneath it), CountConn meters a
// connection's bytes in either role, ObserveServed tallies one served
// request.
type Metrics struct {
	latency  *metrics.Histogram
	bytesIn  *metrics.Counter
	bytesOut *metrics.Counter

	// Per-type families, one child per AllMsgTypes entry.
	reqs, errs, srvReqs, srvErrs *metrics.CounterVec
}

// NewMetrics registers the wire metric families on reg.
func NewMetrics(reg *metrics.Registry) *Metrics {
	return &Metrics{
		latency: reg.NewHistogram("rpc_latency_seconds",
			"Outgoing RPC latency, submission through response decode.", metrics.DefLatencyBuckets),
		bytesIn: reg.NewCounter("rpc_bytes_in_total",
			"Bytes read from wire connections, both roles."),
		bytesOut: reg.NewCounter("rpc_bytes_out_total",
			"Bytes written to wire connections, both roles."),
		reqs: reg.NewCounterEnum("rpc_requests_total",
			"Outgoing RPCs by message type.", "type", msgTypeNames),
		errs: reg.NewCounterEnum("rpc_errors_total",
			"Outgoing RPCs that failed, by message type.", "type", msgTypeNames),
		srvReqs: reg.NewCounterEnum("rpc_server_requests_total",
			"Requests served, by message type.", "type", msgTypeNames),
		srvErrs: reg.NewCounterEnum("rpc_server_errors_total",
			"Requests answered with an error, by message type.", "type", msgTypeNames),
	}
}

// pick returns t's child of a per-type family. A type outside
// AllMsgTypes (a peer may send any byte) gets a child of its own.
func pick(vec *metrics.CounterVec, t MsgType) *metrics.Counter {
	if int(t) < numMsgTypes && msgTypeChild[t] != 0 {
		return vec.At(int(msgTypeChild[t]) - 1)
	}
	return vec.With(t.String())
}

// Wrap instruments a caller: every call through the returned Caller
// records its type, outcome and latency.
func (m *Metrics) Wrap(inner Caller) Caller {
	return CallerFunc(func(ctx context.Context, addr string, req Request) (Response, error) {
		start := time.Now()
		resp, err := inner.Call(ctx, addr, req)
		m.latency.Observe(time.Since(start).Seconds())
		pick(m.reqs, req.Type).Inc()
		if err != nil {
			pick(m.errs, req.Type).Inc()
		}
		return resp, err
	})
}

// CountConn wraps a connection so its traffic feeds the byte counters.
// The counters are atomic: pooled connections carry concurrent
// exchanges. Use it as the pool's ConnWrap and on accepted server conns.
func (m *Metrics) CountConn(conn net.Conn) net.Conn {
	return &meteredConn{Conn: conn, in: m.bytesIn, out: m.bytesOut}
}

// meteredConn feeds a connection's bytes into a Metrics' counters.
type meteredConn struct {
	net.Conn
	in, out *metrics.Counter
}

func (c *meteredConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(uint64(n))
	return n, err
}

func (c *meteredConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(uint64(n))
	return n, err
}

// ObserveServed records one server-side exchange: the request type and
// how it was answered. (Bytes are accounted by CountConn on the accepted
// connection.)
func (m *Metrics) ObserveServed(t MsgType, ok bool) {
	pick(m.srvReqs, t).Inc()
	if !ok {
		pick(m.srvErrs, t).Inc()
	}
}
