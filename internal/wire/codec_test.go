package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// testRequests is a spread of realistic envelopes covering every field.
func testRequests() []Request {
	return []Request{
		{Type: TPing},
		{Type: TFindClosest, Layer: 2, Key: [20]byte{0xde, 0xad}, Hierarchical: true},
		{Type: TNotify, Layer: 1, Peer: Peer{Addr: "n4:9000", ID: [20]byte{4}}},
		{Type: TLeavePred, Layer: 3, Peers: []Peer{{Addr: "a:1"}, {Addr: "b:2", ID: [20]byte{7}}}},
		{Type: TPutRingTable, Name: "1012", Table: RingTable{
			Layer: 2, Name: "1012",
			Smallest: Peer{Addr: "s:1", ID: [20]byte{1}},
			SecondSm: Peer{Addr: "s:2", ID: [20]byte{2}},
			Largest:  Peer{Addr: "l:1", ID: [20]byte{3}},
			SecondLg: Peer{Addr: "l:2", ID: [20]byte{4}},
		}},
		{Type: TStoreGet, Layer: 1, Name: "doc"},
		{Type: TReplicate, Items: []StoreItem{
			{Key: "a", Value: []byte("1"), Version: 9, Writer: "n1:1#4"},
			{Key: "b", Version: 1, Writer: "n2:2#1"},
		}},
		{Type: TRouteGossip, Events: []RouteEvent{
			{Layer: 1, Ring: "global", Peer: Peer{Addr: "n1:9000", ID: [20]byte{1}}, Kind: RouteJoin, Stamp: 3},
			{Layer: 2, Ring: "1012", Peer: Peer{Addr: "n2:9000", ID: [20]byte{2}}, Kind: RouteEvict, Stamp: 11},
		}},
	}
}

func testResponses() []Response {
	return []Response{
		{OK: true},
		{OK: false, Err: "no such ring"},
		{OK: true, Next: Peer{Addr: "n:1", ID: [20]byte{8}}, Done: true, Owner: true},
		{OK: true, Self: Peer{Addr: "s:0", ID: [20]byte{1}},
			RingNames: []string{"10", "22"}, Landmarks: []string{"l:1", "l:2"},
			Coord: [2]float64{3.25, -8.5},
			Succ:  []Peer{{Addr: "x:1"}, {Addr: "y:2"}}, Pred: Peer{Addr: "p:3"}},
		{OK: true, Table: RingTable{Layer: 1, Name: "22", Largest: Peer{Addr: "m:5"}}, Found: true},
		{OK: true, Value: []byte("stored value"), Version: 12, Writer: "w:1#9", Applied: 3},
		{OK: true, Applied: 2, Events: []RouteEvent{
			{Layer: 1, Ring: "global", Peer: Peer{Addr: "n3:9000", ID: [20]byte{3}}, Kind: RouteLeave, Stamp: 8},
		}},
		climbedReply(),
		sameFoldReply(),
	}
}

// climbedReply is a find_closest reply whose walk ended at the answerer,
// which went on to answer for layer 1: a forward to its closest preceding
// global finger.
func climbedReply() Response {
	return Response{OK: true, Self: Peer{Addr: "p:4", ID: [20]byte{4}}, Next: Peer{Addr: "f:6", ID: [20]byte{6}}, Layer: 1}
}

// TestClimbedReplyCodec: a climbed reply is the same reply unclimbed with
// the rsLayer bit set in its mask and the layer as one trailing uvarint,
// so every reply that did not climb encodes as it did before the field
// existed. A mask bit past the known ones is still refused.
func TestClimbedReplyCodec(t *testing.T) {
	climbed := climbedReply()
	plain := climbed
	plain.Layer = 0
	plainEnc, _ := roundTripResponse(t, "unclimbed", &plain)
	enc, got := roundTripResponse(t, "climbed", &climbed)
	if !reflect.DeepEqual(got, climbed) {
		t.Errorf("climbed reply changed by the codec:\n  sent %#v\n  got  %#v", climbed, got)
	}
	mask, n := binary.Uvarint(plainEnc)
	if mask&rsLayer != 0 {
		t.Fatalf("an unclimbed reply sets the rsLayer bit: mask %#x", mask)
	}
	want := append(binary.AppendUvarint(nil, mask|rsLayer), plainEnc[n:]...)
	if want = binary.AppendUvarint(want, 1); !bytes.Equal(enc, want) {
		t.Errorf("climbed reply encodes as\n  %x\nwant the unclimbed one with rsLayer and a trailing layer\n  %x", enc, want)
	}
	unknown := append(binary.AppendUvarint(nil, mask|(rsKnown+1)), plainEnc[n:]...)
	if _, err := (Binary{}).DecodeResponse(unknown); err == nil {
		t.Errorf("a response with mask bit %#x past the known ones decoded", rsKnown+1)
	}
}

// sameFoldReply is a get_neighbors reply to a liveness request that
// carried a replica fold the answerer found equal to its own.
func sameFoldReply() Response {
	return Response{OK: true, Found: true, SameFold: true, Self: Peer{Addr: "s:1", ID: [20]byte{1}},
		Pred: Peer{Addr: "p:2", ID: [20]byte{2}}, Succ: []Peer{{Addr: "t:3", ID: [20]byte{3}}}}
}

// TestSameFoldCodec: a reply saying "same fold" is the reply without it
// plus the rsSameFold bit in the mask, no body byte; a request carrying a
// summary and a fold is the request with only the summary but for Key's
// bytes 8..16. The bit is rsLayer's successor and the last one known.
func TestSameFoldCodec(t *testing.T) {
	same := sameFoldReply()
	plain := same
	plain.SameFold = false
	plainEnc, _ := roundTripResponse(t, "no fold answer", &plain)
	enc, got := roundTripResponse(t, "same fold", &same)
	if !reflect.DeepEqual(normalizeResp(got), normalizeResp(same)) {
		t.Errorf("same-fold reply changed by the codec:\n  sent %#v\n  got  %#v", same, got)
	}
	mask, n := binary.Uvarint(plainEnc)
	if want := append(binary.AppendUvarint(nil, mask|rsSameFold), plainEnc[n:]...); !bytes.Equal(enc, want) {
		t.Errorf("same-fold reply encodes as\n  %x\nwant the plain one with rsSameFold\n  %x", enc, want)
	}
	if rsSameFold != rsLayer<<1 || rsKnown != rsSameFold<<1-1 {
		t.Errorf("rsSameFold %#x, rsKnown %#x: the bit must follow rsLayer and close the known set", rsSameFold, rsKnown)
	}

	summary := Request{Type: TGetNeighbors, Layer: 1, Key: [20]byte{0: 0x5a, 7: 0xa5}}
	folded := summary
	folded.Key[8], folded.Key[15] = 0x11, 0xee
	sumEnc, _ := roundTripRequest(t, "summary", &summary)
	foldEnc, gotReq := roundTripRequest(t, "summary and fold", &folded)
	if !reflect.DeepEqual(normalizeReq(gotReq), normalizeReq(folded)) {
		t.Errorf("request with a fold changed by the codec: %#v", gotReq)
	}
	if len(foldEnc) != len(sumEnc) {
		t.Errorf("a fold beside a summary costs %d bytes, want 0", len(foldEnc)-len(sumEnc))
	}
}

// roundTripRequest encodes req and decodes the bytes again, failing the
// test if either step errors.
func roundTripRequest(t testing.TB, label string, req *Request) ([]byte, Request) {
	t.Helper()
	enc, err := Binary{}.AppendRequest(nil, req)
	if err != nil {
		t.Fatalf("%s: encode request: %v", label, err)
	}
	got, err := Binary{}.DecodeRequest(enc)
	if err != nil {
		t.Fatalf("%s: decode request: %v", label, err)
	}
	return enc, got
}

func roundTripResponse(t testing.TB, label string, resp *Response) ([]byte, Response) {
	t.Helper()
	enc, err := Binary{}.AppendResponse(nil, resp)
	if err != nil {
		t.Fatalf("%s: encode response: %v", label, err)
	}
	got, err := Binary{}.DecodeResponse(enc)
	if err != nil {
		t.Fatalf("%s: decode response: %v", label, err)
	}
	return enc, got
}

// TestCodecCrossEquivalence pins the codec's value model against the
// original value: decode(encode(x)) is x up to the nil≡empty
// normalization, and re-encoding what was decoded reproduces the same
// bytes (the encoding is canonical).
func TestCodecCrossEquivalence(t *testing.T) {
	for _, req := range testRequests() {
		label := req.Type.String()
		enc, got := roundTripRequest(t, label, &req)
		if !reflect.DeepEqual(normalizeReq(req), normalizeReq(got)) {
			t.Errorf("request %s changed by the codec:\n  sent %#v\n  got  %#v", label, req, got)
		}
		if again, _ := roundTripRequest(t, label, &got); !bytes.Equal(enc, again) {
			t.Errorf("request %s: re-encoding the decoded value moved the bytes:\n  %x\n  %x", label, enc, again)
		}
	}
	for i, resp := range testResponses() {
		label := fmt.Sprintf("response %d", i)
		enc, got := roundTripResponse(t, label, &resp)
		if !reflect.DeepEqual(normalizeResp(resp), normalizeResp(got)) {
			t.Errorf("%s changed by the codec:\n  sent %#v\n  got  %#v", label, resp, got)
		}
		if again, _ := roundTripResponse(t, label, &got); !bytes.Equal(enc, again) {
			t.Errorf("%s: re-encoding the decoded value moved the bytes:\n  %x\n  %x", label, enc, again)
		}
	}
}

// fillDistinct sets every exported field reachable from v to a non-zero
// value taken from a running counter, so no two fields of the same type
// carry the same value (bytes wrap after 255) and a decoder that drops,
// swaps or zeroes one cannot go unnoticed. Slices get two elements. A
// kind it does not know is a test failure: a new field shape must be
// taught here before it can ride an envelope. RouteEvent.Kind is the one
// field whose domain the decoder checks, so it gets the largest valid
// kind instead.
func fillDistinct(t *testing.T, v reflect.Value, n *uint64) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				t.Fatalf("%s.%s is unexported: the envelope codec cannot carry it", v.Type(), f.Name)
			}
			if v.Type() == reflect.TypeOf(RouteEvent{}) && f.Name == "Kind" {
				v.Field(i).SetUint(uint64(RouteEvict))
				continue
			}
			fillDistinct(t, v.Field(i), n)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), n)
		}
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Uint8:
		v.SetUint(*n%255 + 1)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint32, reflect.Uint64:
		v.SetUint(*n)
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	default:
		t.Fatalf("fillDistinct: no rule for kind %s (%s)", v.Kind(), v.Type())
	}
}

// TestBinaryCarriesEveryField fills every exported field of both
// envelopes and of the structs nested in them by reflection and
// round-trips the result. The encoder is written by hand, field by field,
// so a field added to Request, Response, Peer, RingTable, StoreItem or
// RouteEvent but forgotten in binary.go's mask, encoder or decoder fails
// here without anyone having to extend testRequests().
func TestBinaryCarriesEveryField(t *testing.T) {
	var n uint64
	var req Request
	fillDistinct(t, reflect.ValueOf(&req).Elem(), &n)
	if _, got := roundTripRequest(t, "filled", &req); !reflect.DeepEqual(req, got) {
		t.Errorf("a request field did not survive the codec:\n  sent %+v\n  got  %+v", req, got)
	}
	var resp Response
	fillDistinct(t, reflect.ValueOf(&resp).Elem(), &n)
	if _, got := roundTripResponse(t, "filled", &resp); !reflect.DeepEqual(resp, got) {
		t.Errorf("a response field did not survive the codec:\n  sent %+v\n  got  %+v", resp, got)
	}
}

// corpusSeeds loads the committed fuzz corpus: each file is one
// `go test fuzz v1` entry holding a single []byte argument.
func corpusSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeMessage")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read corpus dir: %v", err)
	}
	seeds := make(map[string][]byte)
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)
		if len(lines) != 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a go test fuzz v1 file", e.Name())
		}
		arg := strings.TrimSpace(lines[1])
		arg = strings.TrimPrefix(arg, "[]byte(")
		arg = strings.TrimSuffix(arg, ")")
		data, err := strconv.Unquote(arg)
		if err != nil {
			t.Fatalf("%s: unquote corpus arg: %v", e.Name(), err)
		}
		seeds[e.Name()] = []byte(data)
	}
	return seeds
}

// TestCorpusCrossEquivalence replays the committed fuzz corpus: whatever
// decodes re-encodes to a canonical form that decodes to the same value
// and is a fixed point of decode-then-encode. Every named seed except the
// deliberate garbage must still decode as a request or a response — a
// seed that no longer does has rotted and seeds the fuzzer with noise.
func TestCorpusCrossEquivalence(t *testing.T) {
	seeds := corpusSeeds(t)
	if len(seeds) == 0 {
		t.Fatal("empty corpus")
	}
	for name, data := range seeds {
		decoded := false
		if req, err := (Binary{}).DecodeRequest(data); err == nil {
			decoded = true
			checkCanonicalRequest(t, name, req)
		}
		if resp, err := (Binary{}).DecodeResponse(data); err == nil {
			decoded = true
			checkCanonicalResponse(t, name, resp)
		}
		if !decoded && strings.HasPrefix(name, "seed_") && name != "seed_garbage" {
			t.Errorf("%s decodes neither as a request nor as a response; the corpus has rotted", name)
		}
	}
}

// checkCanonicalRequest asserts what the fuzz contract promises of any
// request the decoder accepted: it re-encodes, the canonical bytes decode
// to the same value, and encoding that value again yields the same bytes.
func checkCanonicalRequest(t *testing.T, label string, req Request) {
	t.Helper()
	canon, req2 := roundTripRequest(t, label, &req)
	if !reflect.DeepEqual(normalizeReq(req), normalizeReq(req2)) {
		t.Fatalf("%s: request not stable through the codec:\n  first  %#v\n  second %#v", label, req, req2)
	}
	if again, _ := roundTripRequest(t, label, &req2); !bytes.Equal(canon, again) {
		t.Fatalf("%s: canonical request bytes are not a fixed point:\n  %x\n  %x", label, canon, again)
	}
}

func checkCanonicalResponse(t *testing.T, label string, resp Response) {
	t.Helper()
	canon, resp2 := roundTripResponse(t, label, &resp)
	if !reflect.DeepEqual(normalizeResp(resp), normalizeResp(resp2)) {
		t.Fatalf("%s: response not stable through the codec:\n  first  %#v\n  second %#v", label, resp, resp2)
	}
	if again, _ := roundTripResponse(t, label, &resp2); !bytes.Equal(canon, again) {
		t.Fatalf("%s: canonical response bytes are not a fixed point:\n  %x\n  %x", label, canon, again)
	}
}

// TestBinaryEncodeZeroAllocs pins the tentpole property: encoding into a
// presized buffer allocates nothing.
func TestBinaryEncodeZeroAllocs(t *testing.T) {
	reqs := testRequests()
	resps := testResponses()
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(200, func() {
		for i := range reqs {
			var err error
			buf, err = Binary{}.AppendRequest(buf[:0], &reqs[i])
			if err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("Binary.AppendRequest allocs/run = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		for i := range resps {
			var err error
			buf, err = Binary{}.AppendResponse(buf[:0], &resps[i])
			if err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("Binary.AppendResponse allocs/run = %v, want 0", n)
	}
}

func BenchmarkAppendRequestBinary(b *testing.B) {
	reqs := testRequests()
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = Binary{}.AppendRequest(buf[:0], &reqs[i%len(reqs)])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeRequestBinary(b *testing.B) {
	reqs := testRequests()
	encoded := make([][]byte, len(reqs))
	for i := range reqs {
		var err error
		encoded[i], err = Binary{}.AppendRequest(nil, &reqs[i])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Binary{}).DecodeRequest(encoded[i%len(encoded)]); err != nil {
			b.Fatal(err)
		}
	}
}
