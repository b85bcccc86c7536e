package wire

import (
	"encoding/hex"
	"testing"
)

// TestFoldlessFramesUnchanged: the frames of message types that never carry
// a replica fold encode byte for byte as they did before the fold and its
// rsSameFold reply bit existed. The hex is the encoding the codec produced
// then; only liveness requests and their replies may move.
func TestFoldlessFramesUnchanged(t *testing.T) {
	want := map[string]string{
		"find_closest/req":          "03830204dead000000000000000000000000000000000001",
		"find_closest/req-join":     "0303020300000000000000000000000000000000000000",
		"find_closest/resp-next":    "21076e323a3930303002fe020000000000000000000000000000000000",
		"find_closest/resp-done":    "27076e333a3930303003fe030000000000000000000000000000000000",
		"find_closest/resp-climbed": "e180800203663a3606fe06000000000000000000000000000000000003703a3404fe04000000000000000000000000000000000001",
		"find_closest/resp-err":     "101e6c617965722039206f7574206f662072616e676520286465707468203229",
		"store_get/req":             "0e0403646f63",
		"store_get/req-owner":       "0e050203646f63",
		"store_get/resp":            "89c00b0576616c756507096e313a3930303023335a",
		"store_get/resp-owner":      "8d881302076e323a3930303002fe020000000000000000000000000000000000076e333a3930303003fe03000000000000000000000000000000000008096e313a393030302334",
		"store_put/req":             "0d840103646f630103646f630576616c756507096e313a3930303023335a00",
		"store_put/req-owner":       "0d85010203646f630103646f630576616c756507096e313a3930303023335a00",
		"store_put/resp":            "81800402",
		"store_put/resp-owner":      "85880501076e323a3930303002fe0200000000000000000000000000000000000902",
		"route_gossip/probe":        "13020102030405060708000000000000000000000000",
		"route_gossip/push":         "1382100807060504030201000000000000000000000000020200076e343a3930303004fe040000000000000000000000000000000000000c0402617a076e353a3930303005fe0500000000000000000000000000000000000228",
		"route_gossip/resp-same":    "09",
		"route_gossip/resp-events":  "8180840104020200076e343a3930303004fe040000000000000000000000000000000000000c0402617a076e353a3930303005fe0500000000000000000000000000000000000228",
	}
	frames := frozenFrames()
	if len(frames) != len(want) {
		t.Fatalf("%d frames, %d recorded encodings", len(frames), len(want))
	}
	for _, f := range frames {
		var enc []byte
		if f.req != nil {
			enc, _ = roundTripRequest(t, f.name, f.req)
		} else {
			enc, _ = roundTripResponse(t, f.name, f.resp)
		}
		if got := hex.EncodeToString(enc); got != want[f.name] {
			t.Errorf("%s encodes as\n  %s\nwas\n  %s", f.name, got, want[f.name])
		}
	}
}

// frozenFrame is one envelope of a message type whose frames carry no
// replica fold.
type frozenFrame struct {
	name string
	req  *Request
	resp *Response
}

// frozenFrames spreads over find_closest, store_get, store_put and
// route_gossip, requests and replies, every field those types use.
func frozenFrames() []frozenFrame {
	peer := func(addr string, b byte) Peer { return Peer{Addr: addr, ID: [20]byte{b, 0xfe, b}} }
	item := StoreItem{Key: "doc", Value: []byte("value"), Version: 7, Writer: "n1:9000#3", Expire: 90}
	events := []RouteEvent{
		{Layer: 1, Ring: "", Peer: peer("n4:9000", 4), Kind: RouteJoin, Stamp: 12},
		{Layer: 2, Ring: "az", Peer: peer("n5:9000", 5), Kind: RouteEvict, Stamp: 40},
	}
	return []frozenFrame{
		{name: "find_closest/req", req: &Request{Type: TFindClosest, Layer: 2, Key: [20]byte{0xde, 0xad, 19: 1}, Hierarchical: true}},
		{name: "find_closest/req-join", req: &Request{Type: TFindClosest, Layer: 1, Key: [20]byte{3}}},
		{name: "find_closest/resp-next", resp: &Response{OK: true, Next: peer("n2:9000", 2)}},
		{name: "find_closest/resp-done", resp: &Response{OK: true, Next: peer("n3:9000", 3), Done: true, Owner: true}},
		{name: "find_closest/resp-climbed", resp: &Response{OK: true, Self: peer("p:4", 4), Next: peer("f:6", 6), Layer: 1}},
		{name: "find_closest/resp-err", resp: &Response{Err: "layer 9 out of range (depth 2)"}},
		{name: "store_get/req", req: &Request{Type: TStoreGet, Name: "doc"}},
		{name: "store_get/req-owner", req: &Request{Type: TStoreGet, Name: "doc", Layer: 1}},
		{name: "store_get/resp", resp: &Response{OK: true, Found: true, Value: []byte("value"), Version: 7, Writer: "n1:9000#3", Expire: 90}},
		{name: "store_get/resp-owner", resp: &Response{OK: true, Owner: true, Succ: []Peer{peer("n2:9000", 2), peer("n3:9000", 3)},
			Found: true, Version: 8, Writer: "n1:9000#4", Tombstone: true}},
		{name: "store_put/req", req: &Request{Type: TStorePut, Name: "doc", Items: []StoreItem{item}}},
		{name: "store_put/req-owner", req: &Request{Type: TStorePut, Name: "doc", Layer: 1, Items: []StoreItem{item}}},
		{name: "store_put/resp", resp: &Response{OK: true, Applied: 1}},
		{name: "store_put/resp-owner", resp: &Response{OK: true, Owner: true, Version: 9, Applied: 1, Succ: []Peer{peer("n2:9000", 2)}}},
		{name: "route_gossip/probe", req: &Request{Type: TRouteGossip, Key: [20]byte{1, 2, 3, 4, 5, 6, 7, 8}}},
		{name: "route_gossip/push", req: &Request{Type: TRouteGossip, Key: [20]byte{8, 7, 6, 5, 4, 3, 2, 1}, Events: events}},
		{name: "route_gossip/resp-same", resp: &Response{OK: true, Found: true}},
		{name: "route_gossip/resp-events", resp: &Response{OK: true, Applied: 2, Events: events}},
	}
}
