package wire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

// FuzzDecodeMessage feeds arbitrary bytes to the envelope decoders. The
// contract under fuzz: decoding never panics, decoding has no memory (the
// same bytes decoded twice give equal values, whatever the first decode
// left in the intern table), and any input that decodes successfully
// re-encodes to a canonical byte form that decodes to the same value and
// is a fixed point of decode-then-encode (no lossy or ambiguous
// envelopes, up to the nil≡empty equivalence).
func FuzzDecodeMessage(f *testing.F) {
	seedReq := &Request{
		Type: TFindClosest, Layer: 2, Key: [20]byte{1, 2, 3}, Name: "ring:az",
		Peer: Peer{Addr: "n1:9000", ID: [20]byte{9}}, Hierarchical: true,
	}
	seedResp := &Response{
		OK: true, Next: Peer{Addr: "n2:9000"}, Done: true,
		RingNames: []string{"a", "ab"}, Succ: []Peer{{Addr: "n3:9000"}},
	}
	seedStore := &Request{
		Type: TReplicate, Name: "doc-1",
		Items: []StoreItem{{Key: "doc-1", Value: []byte("v1"), Version: 7, Writer: "n1:9000#3"}},
	}
	seedStoreResp := &Response{
		OK: true, Found: true, Value: []byte("v1"), Version: 7, Writer: "n1:9000#3", Applied: 1,
	}
	seedOwnerPut := &Request{
		Type: TStorePut, Layer: 1, Name: "doc-3",
		Items: []StoreItem{{Key: "doc-3", Value: []byte("v3"), Version: 4, Writer: "n1:9000#8", Expire: 90}},
	}
	seedOwnerPutResp := &Response{
		OK: true, Owner: true, Version: 6, Applied: 1,
		Succ: []Peer{{Addr: "n2:9000", ID: [20]byte{2}}, {Addr: "n3:9000", ID: [20]byte{3}}},
	}
	seedDigest := &Request{
		Type: TSyncPull, Key: [20]byte{4}, KeyHi: [20]byte{8}, Buckets: []uint32{0, 7, 31},
	}
	seedDigestResp := &Response{
		OK: true, Digests: []uint64{0xdeadbeef, 0, 42},
		Items: []StoreItem{{Key: "doc-2", Version: 9, Writer: "n2:9000#1", Expire: 100, Tombstone: true}},
	}
	seedGossip := &Request{
		Type: TRouteGossip,
		Events: []RouteEvent{
			{Layer: 1, Ring: "global", Peer: Peer{Addr: "n4:9000", ID: [20]byte{5}}, Kind: RouteJoin, Stamp: 12},
			{Layer: 2, Ring: "az", Peer: Peer{Addr: "n5:9000"}, Kind: RouteEvict, Stamp: 40},
		},
	}
	seedGossipResp := &Response{
		OK: true, Applied: 1,
		Events: []RouteEvent{{Layer: 1, Ring: "global", Peer: Peer{Addr: "n6:9000"}, Kind: RouteLeave, Stamp: 7}},
	}
	reqs := append([]Request{*seedReq, *seedStore, *seedOwnerPut, *seedDigest, *seedGossip}, testRequests()...)
	for i := range reqs {
		if b, err := (Binary{}).AppendRequest(nil, &reqs[i]); err == nil {
			f.Add(b)
		}
	}
	// Addresses at the intern table's edges: one too long to intern, and
	// an empty one.
	seedLongAddr := &Response{OK: true, Next: Peer{Addr: strings.Repeat("h", internMaxLen) + ":9000"}}
	seedEmptyAddr := &Response{OK: true, Next: Peer{ID: [20]byte{1}}, Succ: []Peer{{Addr: ""}}}
	resps := append([]Response{*seedResp, *seedStoreResp, *seedOwnerPutResp, *seedDigestResp, *seedGossipResp, *seedLongAddr, *seedEmptyAddr},
		testResponses()...)
	for i := range resps {
		if b, err := (Binary{}).AppendResponse(nil, &resps[i]); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := (Binary{}).DecodeRequest(data); err == nil {
			if again, _ := (Binary{}).DecodeRequest(data); !reflect.DeepEqual(req, again) {
				t.Fatalf("request decoded twice differs:\n  first  %#v\n  second %#v", req, again)
			}
			checkCanonicalRequest(t, "fuzz input", req)
		}
		if resp, err := (Binary{}).DecodeResponse(data); err == nil {
			if again, _ := (Binary{}).DecodeResponse(data); !reflect.DeepEqual(resp, again) {
				t.Fatalf("response decoded twice differs:\n  first  %#v\n  second %#v", resp, again)
			}
			checkCanonicalResponse(t, "fuzz input", resp)
		}
	})
}

// FuzzRoundTrip builds request and response envelopes from fuzzed fields
// and asserts encode→decode is the identity on the original value —
// through the raw codec and through a full framed MemNet exchange.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint8(TPing), 1, []byte("key material"), "ring:a", "n0:9000", []byte("value"), true)
	f.Add(uint8(TStorePut), 3, []byte{}, "", "", []byte(nil), false)
	// An ownership-checked put (Layer 1) and its Owner+Succ+Version reply.
	f.Add(uint8(TStorePut), 1, []byte("doc"), "doc", "n1:9000", []byte("v"), false)
	f.Add(uint8(TEvict), -7, bytes.Repeat([]byte{0xaa}, 40), "deep/ring", "host:1", []byte{0}, true)

	f.Fuzz(func(t *testing.T, typ uint8, layer int, keyMat []byte, name, addr string, value []byte, hier bool) {
		var key, pid [20]byte
		copy(key[:], keyMat)
		copy(pid[:], bytes.Repeat(keyMat, 2))
		req := Request{
			Type:  MsgType(typ),
			Layer: layer,
			Key:   key,
			Name:  name,
			Peer:  Peer{Addr: addr, ID: pid},
			Peers: []Peer{{Addr: addr + "'", ID: key}},
			Table: RingTable{Layer: layer, Name: name, Smallest: Peer{Addr: addr, ID: key}},
			Items: []StoreItem{{Key: name, Value: value, Version: uint64(typ), Writer: addr + "#1",
				Expire: uint64(typ) * 3, Tombstone: hier}},
			KeyHi:   pid,
			Buckets: []uint32{uint32(typ), uint32(typ) + 1},
			Events: []RouteEvent{{Layer: layer, Ring: name, Peer: Peer{Addr: addr, ID: pid},
				Kind: typ % 3, Stamp: uint64(typ) + 5}},

			Hierarchical: hier,
		}
		resp := Response{
			OK: true, Err: name,
			Next: Peer{Addr: addr, ID: key}, Done: hier, Owner: !hier,
			Self: Peer{Addr: addr, ID: pid}, RingNames: []string{name, name + "x"},
			Landmarks: []string{addr}, Coord: [2]float64{float64(layer), 0.5},
			Succ: []Peer{{Addr: addr}}, Pred: Peer{ID: key},
			Table: req.Table, Found: hier, Value: value,
			Version: uint64(layer), Writer: addr + "#2", Applied: layer,
			Expire: uint64(typ), Tombstone: !hier,
			Digests: []uint64{uint64(typ), ^uint64(typ)},
			Items:   req.Items,
			Events:  req.Events,
			Layer:   layer,
		}

		if _, got := roundTripRequest(t, "fuzzed", &req); !reflect.DeepEqual(normalizeReq(req), normalizeReq(got)) {
			t.Fatalf("request round trip mismatch:\n  sent %#v\n  got  %#v", req, got)
		}
		if _, got := roundTripResponse(t, "fuzzed", &resp); !reflect.DeepEqual(normalizeResp(resp), normalizeResp(got)) {
			t.Fatalf("response round trip mismatch:\n  sent %#v\n  got  %#v", resp, got)
		}

		// Same envelopes through a full framed MemNet exchange: what a
		// peer receives is exactly what was sent.
		mn := NewMemNet()
		ln, err := mn.Listen("peer")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		served := make(chan Request, 1)
		go func() {
			for {
				conn, acceptErr := ln.Accept()
				if acceptErr != nil {
					return
				}
				go func() {
					_ = ServeConn(conn, func(r Request) Response {
						served <- r
						return resp
					}, ServeOptions{})
				}()
			}
		}()
		viaWire, callErr := callVia(mn.Dial, "peer", req, 5*time.Second)
		if callErr != nil {
			t.Fatalf("exchange: %v", callErr)
		}
		if !reflect.DeepEqual(normalizeResp(resp), normalizeResp(viaWire)) {
			t.Fatalf("response altered by wire exchange:\n  sent %#v\n  got  %#v", resp, viaWire)
		}
		if !reflect.DeepEqual(normalizeReq(req), normalizeReq(<-served)) {
			t.Fatalf("request altered by wire exchange")
		}
	})
}

// normalizeReq maps a request to its canonical comparable form: a field
// is on the wire iff it is non-zero, so nil and empty slices are one
// value and the codec identity holds up to that equivalence.
func normalizeReq(r Request) Request {
	if len(r.Peers) == 0 {
		r.Peers = nil
	}
	if len(r.Items) == 0 {
		r.Items = nil
	}
	if len(r.Buckets) == 0 {
		r.Buckets = nil
	}
	if len(r.Events) == 0 {
		r.Events = nil
	}
	for i := range r.Items {
		if len(r.Items[i].Value) == 0 {
			r.Items[i].Value = nil
		}
	}
	return r
}

func normalizeResp(r Response) Response {
	if len(r.Value) == 0 {
		r.Value = nil
	}
	if len(r.Succ) == 0 {
		r.Succ = nil
	}
	if len(r.RingNames) == 0 {
		r.RingNames = nil
	}
	if len(r.Landmarks) == 0 {
		r.Landmarks = nil
	}
	if len(r.Digests) == 0 {
		r.Digests = nil
	}
	if len(r.Items) == 0 {
		r.Items = nil
	}
	if len(r.Events) == 0 {
		r.Events = nil
	}
	for i := range r.Items {
		if len(r.Items[i].Value) == 0 {
			r.Items[i].Value = nil
		}
	}
	return r
}
