package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Span kinds. A client span is one op; an rpc span is one attempt seen
// at transport.Config.WrapCaller; a part span is one of the four public
// parts the traced maintain round is driven as.
const (
	kindClient = iota
	kindRPC
	kindPart
)

var kindNames = [...]string{"client", "rpc", "part"}

// span is one timed interval the harness recorded around its own call
// into a layer. Parent is the id of the op in flight (0 for a client
// span); times are nanoseconds since the tracer's epoch.
type span struct {
	ID, Parent uint32
	Kind, Type uint8 // Type: wire.MsgType of an rpc, part index of a part
	From, To   int16 // node indexes; -1 when not a node
	Start, End int64
}

// tracer keeps spans in a pre-sized slice; nothing is written until the
// run ends. Traced trials run one client, so "the op in flight" is a
// single value and parenting is exact.
type tracer struct {
	epoch   time.Time
	on      atomic.Bool
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
	nextID  atomic.Uint32
	cur     atomic.Uint32 // id of the op in flight
	opStart int64
	names   []string // node index -> address, for the span file
}

// newTracer sizes the buffer for capacity spans and hands the tracer to
// the world so its WrapCaller seam can record into it.
func newTracer(w world, capacity int) *tracer {
	tr := &tracer{epoch: time.Now(), spans: make([]span, capacity)}
	if a, ok := w.(interface{ attach(*tracer) }); ok {
		a.attach(tr)
	}
	return tr
}

func (t *tracer) enable(on bool) { t.on.Store(on) }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	i := t.n.Add(1) - 1
	if int(i) >= len(t.spans) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = s
}

func (t *tracer) beginOp() {
	t.cur.Store(t.nextID.Add(1))
	t.opStart = t.now()
}

func (t *tracer) endOp() {
	t.add(span{ID: t.cur.Load(), Kind: kindClient, From: -1, To: -1, Start: t.opStart, End: t.now()})
	t.cur.Store(0)
}

// child records an rpc or part span under the op in flight.
func (t *tracer) child(kind, typ uint8, from, to int, start int64) {
	t.add(span{
		ID: t.nextID.Add(1), Parent: t.cur.Load(), Kind: kind, Type: typ,
		From: int16(from), To: int16(to), Start: start, End: t.now(),
	})
}

func (t *tracer) recorded() []span {
	n := int(t.n.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

// clientMetrics derives the per-op latency tail from the client spans.
func (t *tracer) clientMetrics(out map[string]float64) {
	var d []float64
	for _, s := range t.recorded() {
		if s.Kind == kindClient {
			d = append(d, float64(s.End-s.Start)/1e6)
		}
	}
	if len(d) == 0 {
		return
	}
	sort.Float64s(d)
	out["client.p99_ms"] = d[len(d)*99/100]
}

// rpcMetrics derives the transport-layer numbers from rpc spans grouped
// under their op: attempts per op by type, the critical path (spans left
// after merging overlaps) and the origin's self time (op minus the union
// of its rpc spans).
func (t *tracer) rpcMetrics(ops int, out map[string]float64) {
	byType := map[uint8]int{}
	var durs []float64
	var trips int
	var self int64
	var pending []span // rpc spans of the op whose client span has not closed yet
	for _, s := range t.recorded() {
		switch s.Kind {
		case kindRPC:
			byType[s.Type]++
			durs = append(durs, float64(s.End-s.Start)/1e3)
			pending = append(pending, s)
		case kindClient:
			sort.Slice(pending, func(i, j int) bool { return pending[i].Start < pending[j].Start })
			var busy, end int64
			for i, r := range pending {
				if i == 0 || r.Start > end {
					trips++
					busy += r.End - r.Start
					end = r.End
				} else if r.End > end {
					busy += r.End - end
					end = r.End
				}
			}
			self += (s.End - s.Start) - busy
			pending = pending[:0]
		}
	}
	n := float64(ops)
	for _, name := range rpcTypeNames {
		out["transport.rpcs_per_op."+name] = 0
	}
	for typ, c := range byType {
		out["transport.rpcs_per_op."+rpcTypeName(wire.MsgType(typ))] += float64(c) / n
	}
	if len(durs) > 0 {
		out["transport.rpc_p50_us"] = median(durs)
	}
	out["transport.round_trips_per_op"] = float64(trips) / n
	out["transport.origin_self_us"] = float64(self) / 1e3 / n
}

// rpcTypeNames are the message types a measured window can contain; any
// other type is folded into "other" so the per-type rates always sum to
// msgs_per_op.
var rpcTypeNames = []string{
	"ping", "find_closest", "get_neighbors", "notify", "get_ring_table", "put_ring_table",
	"store_put", "store_get", "replicate", "digest", "sync_pull", "route_gossip", "other",
}

func rpcTypeName(t wire.MsgType) string {
	name := t.String()
	for _, n := range rpcTypeNames {
		if n == name {
			return name
		}
	}
	return "other"
}

// writeSpans writes the recorded spans to path as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if d := t.dropped.Load(); d > 0 {
		return fmt.Errorf("trace: span buffer overflowed, %d spans dropped", d)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	node := func(i int16) string {
		if i < 0 || int(i) >= len(t.names) {
			return ""
		}
		return t.names[i]
	}
	for _, s := range t.recorded() {
		typ := ""
		switch s.Kind {
		case kindRPC:
			typ = wire.MsgType(s.Type).String()
		case kindPart:
			typ = maintainParts[s.Type]
		}
		err = enc.Encode(struct {
			ID      uint32 `json:"id"`
			Parent  uint32 `json:"parent,omitempty"`
			Kind    string `json:"kind"`
			Type    string `json:"type,omitempty"`
			From    string `json:"from,omitempty"`
			To      string `json:"to,omitempty"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
		}{s.ID, s.Parent, kindNames[s.Kind], typ, node(s.From), node(s.To), s.Start, s.End})
		if err != nil {
			break
		}
	}
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
