package transport

import (
	"context"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// Trace records the calls one operation sends — a Lookup, Put or Get run
// under a context from WithTrace — as net/http/httptrace does for a
// request. A lookup is iterative, so the origin makes every call of it
// itself: the record is taken at the origin, and no frame carries it. A
// Trace serves one operation at a time; reset Calls to reuse it.
type Trace struct {
	// Calls holds one record per call that left the node, in call order.
	// A caller that sizes it ahead makes tracing allocate nothing.
	Calls []TraceCall
}

// TraceCall is one call an operation sent: a request answered in-process
// (addressed to the node itself) is no message and is not recorded.
type TraceCall struct {
	Addr    string       // the callee
	Type    wire.MsgType // the request's type
	Layer   int          // the request's layer
	Climbed int          // the layer a climbed reply answered for (wire.Response.Layer); 0 when it did not climb
	RTT     time.Duration
	Failed  bool // the call returned an error, retries spent
}

type traceKey struct{}

// WithTrace returns a context that makes every call of an operation run
// under it append to t. RTT is wall time, retries included, and is for
// reporting only: nothing the node decides reads it.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// tracedCall is call's path to another node under a traced context.
func (n *Node) tracedCall(ctx context.Context, t *Trace, addr string, req wire.Request) (wire.Response, error) {
	start := time.Now()
	resp, err := n.retrier.Call(ctx, addr, req)
	t.Calls = append(t.Calls, TraceCall{
		Addr: addr, Type: req.Type, Layer: req.Layer, Climbed: resp.Layer,
		RTT: time.Since(start), Failed: err != nil,
	})
	return resp, err
}

// Record converts a lookup traced into t to the simulator's trace record,
// so traceview reads a live run as it reads a simulated one: Hops and
// Lower (the hops in layers >= 2) are res's, Latency sums the RTT of every
// call t holds and LowerMs that of the calls to layers >= 2. Seq, Origin
// and Dest are the caller's to set: a live node is an address, not an
// overlay index.
func (t *Trace) Record(res LookupResult) trace.Record {
	r := trace.Record{Hops: res.Hops}
	for _, h := range res.LayerHops[1:] {
		r.Lower += h
	}
	for _, c := range t.Calls {
		ms := float64(c.RTT) / float64(time.Millisecond)
		r.Latency += ms
		if c.Layer >= 2 {
			r.LowerMs += ms
		}
	}
	return r
}
