package main

import (
	"context"
	"net"
	"strconv"
	"time"

	"repro/internal/replica"
	"repro/internal/routes"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Direct timed calls into the live stack's lower layers: each runs for
// cfg.microTime on state shaped like the workload's own (32 peers, 256 B
// values, the cluster's route events and stored items).

func samplePeer(i int) wire.Peer {
	addr := "127.0.0.1:" + strconv.Itoa(defaultPortBase+i)
	return wire.Peer{Addr: addr, ID: [20]byte(transport.NodeID(addr))}
}

// exchange is one request and its response.
type exchange struct {
	req  wire.Request
	resp wire.Response
}

// findClosestExchange is one routing step of a hierarchical lookup.
func findClosestExchange() exchange {
	p := samplePeer(7)
	return exchange{
		wire.Request{Type: wire.TFindClosest, Layer: 2, Key: p.ID, Hierarchical: true},
		wire.Response{OK: true, Next: p, Self: samplePeer(3)},
	}
}

// wireBytes is what one such exchange puts on the wire under the binary
// codec, frame headers included: the bytes the harness's own counting
// connections see for the second call over a pooled MemNet connection
// (the first also carries the connection preamble).
func (x exchange) wireBytes() (int, error) {
	var k counters
	pool, addr, stop, err := servePool(false, &k, func(wire.Request) wire.Response { return x.resp })
	if err != nil {
		return 0, err
	}
	defer stop()
	var before uint64
	for i := 0; i < 2; i++ {
		before = k.bytes.Load()
		if _, err := pool.Call(context.Background(), addr, x.req); err != nil {
			return 0, err
		}
	}
	return int(k.bytes.Load() - before), nil
}

// servePool starts a one-connection server answering with handler, over
// MemNet or loopback TCP, and a pool dialling it; k counts the bytes both
// sides write. stop closes both and waits for the server.
func servePool(tcp bool, k *counters, handler func(wire.Request) wire.Response) (pool *wire.Pool, addr string, stop func(), err error) {
	var ln net.Listener
	mem := wire.NewMemNet()
	dial := mem.Dial
	if tcp {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		dial = tcpDial
	} else {
		ln, err = mem.Listen("peer")
	}
	if err != nil {
		return nil, "", nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, aerr := countListener{ln, &k.bytes}.Accept()
		if aerr != nil {
			return
		}
		_ = wire.ServeConn(conn, handler, wire.ServeOptions{})
	}()
	pool = wire.NewPool(wire.PoolOptions{Dial: k.wrapDial(dial)})
	return pool, ln.Addr().String(), func() {
		_ = pool.Close()
		_ = ln.Close()
		<-done
	}, nil
}

// codecSamples are the four messages the live workloads lean on: the
// smallest (find_closest), the value carrier (store_put) and the two
// maintenance frames (route_gossip, digest).
func codecSamples() map[string]exchange {
	item := wire.StoreItem{Key: samplePeer(1).Addr + "-key-0123456789abcdef", Value: make([]byte, valueBytes), Version: 7, Writer: samplePeer(7).Addr + "#1234"}
	var events []wire.RouteEvent
	stamp := uint64(time.Now().UnixNano())
	for i := 0; i < 32; i++ {
		events = append(events,
			wire.RouteEvent{Layer: 1, Peer: samplePeer(i), Stamp: stamp},
			wire.RouteEvent{Layer: 2, Ring: "02", Peer: samplePeer(i), Stamp: stamp})
	}
	digests := make([]uint64, replica.DigestBuckets)
	for i := range digests {
		digests[i] = 0x9e3779b97f4a7c15 * uint64(i+1)
	}
	return map[string]exchange{
		"find_closest": findClosestExchange(),
		"store_put":    {wire.Request{Type: wire.TStorePut, Name: item.Key, Items: []wire.StoreItem{item}}, wire.Response{OK: true, Applied: 1}},
		"route_gossip": {wire.Request{Type: wire.TRouteGossip, Events: events}, wire.Response{OK: true}},
		"digest":       {wire.Request{Type: wire.TDigest, Key: samplePeer(1).ID, KeyHi: samplePeer(2).ID}, wire.Response{OK: true, Digests: digests}},
	}
}

// codecLayers times the binary codec on one exchange of each sample:
// append = encode request + response into reused buffers, decode = decode
// both; frame_bytes is the exchange's size on the wire.
func codecLayers(d time.Duration, out map[string]float64) {
	codec := wire.Binary{}
	for name, x := range codecSamples() {
		x := x
		var rb, pb []byte
		out["wire.codec.append_ns."+name], _ = timeCall(d/2, func(int) int {
			rb, _ = codec.AppendRequest(rb[:0], &x.req)
			pb, _ = codec.AppendResponse(pb[:0], &x.resp)
			return len(pb)
		})
		if n, err := x.wireBytes(); err == nil {
			out["wire.codec.frame_bytes."+name] = float64(n)
		}
		out["wire.codec.decode_ns."+name], out["wire.codec.decode_allocs."+name] = timeCall(d/2, func(int) int {
			q, _ := codec.DecodeRequest(rb)
			p, _ := codec.DecodeResponse(pb)
			return q.Layer + p.Applied
		})
	}
}

// poolCall times one Pool.Call of TPing against a ServeConn handler:
// the whole frame/pool/session exchange with no node behind it.
func poolCall(d time.Duration, tcp bool) (ns, allocs float64) {
	var k counters
	pool, addr, stop, err := servePool(tcp, &k, func(wire.Request) wire.Response { return wire.Response{OK: true} })
	if err != nil {
		return 0, 0
	}
	defer stop()
	return timeCall(d, func(int) int {
		if _, cerr := pool.Call(context.Background(), addr, wire.Request{Type: wire.TPing}); cerr != nil {
			return 1
		}
		return 0
	})
}

// engineOf copies one node's stored items into a fresh engine, so the
// timed calls below run on the workload's own data without touching it.
func engineOf(items []wire.StoreItem) *replica.Engine {
	e := replica.NewEngine()
	e.ApplyBatch(items)
	return e
}

// engineApplyNs times Engine.Apply of a superseding write, as a put's
// store_put delivers.
func engineApplyNs(d time.Duration, items []wire.StoreItem) float64 {
	e := engineOf(items)
	ns, _ := timeCall(d, func(i int) int {
		it := items[i%len(items)]
		it.Version += uint64(i/len(items)) + 1
		if e.Apply(it) {
			return 1
		}
		return 0
	})
	return ns
}

func engineGetNs(d time.Duration, items []wire.StoreItem) float64 {
	e := engineOf(items)
	ns, _ := timeCall(d, func(i int) int {
		it, _ := e.Get(items[i%len(items)].Key)
		return len(it.Value)
	})
	return ns
}

// engineRangeDigestNs times one whole-ring RangeDigest, what a TDigest
// handler does per request.
func engineRangeDigestNs(d time.Duration, items []wire.StoreItem) float64 {
	e := engineOf(items)
	keyID := func(k string) [20]byte { return [20]byte(transport.LiveKeyID(k)) }
	var whole [20]byte
	ns, _ := timeCall(d, func(int) int { return len(e.RangeDigest(keyID, whole, whole)) })
	return ns
}

// tableOf rebuilds a route table from one node's route events.
func tableOf(events []wire.RouteEvent) *routes.Table {
	t := routes.New()
	t.ApplyAll(events)
	return t
}

func routesOwnerNs(d time.Duration, events []wire.RouteEvent, keys []string) float64 {
	t := tableOf(events)
	ids := make([][20]byte, len(keys))
	for i, k := range keys {
		ids[i] = [20]byte(transport.LiveKeyID(k))
	}
	ns, _ := timeCall(d, func(i int) int {
		p, _ := t.Owner(1, "", ids[i%len(ids)])
		return len(p.Addr)
	})
	return ns
}

// routesGossipNs times the two table calls of a steady-state gossip
// exchange: a full event set that changes nothing, and the diff against it.
func routesGossipNs(d time.Duration, events []wire.RouteEvent) (applyAll, diff float64) {
	t := tableOf(events)
	applyAll, _ = timeCall(d, func(int) int { return t.ApplyAll(events) })
	diff, _ = timeCall(d, func(int) int { return len(t.Diff(events)) })
	return applyAll, diff
}
