package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// Binary is the wire codec: a hand-rolled, reflection-free,
// length-checked encoding of the two envelopes. The layout is
//
//	Request:  [type u8][field mask uvarint][present fields in order]
//	Response: [field mask uvarint][present fields in order]
//
// where the mask has one bit per envelope field (bools are carried by the
// mask itself) and a field is present iff it is non-zero, so nil and
// empty slices are one value on the wire (the nil≡empty normalization the
// round-trip tests and fuzz targets compare under). Scalars are varints
// (zigzag for signed), strings and byte slices are uvarint-length-prefixed,
// identifiers are 20 raw bytes, and composite values (Peer, RingTable,
// StoreItem) encode their fields unconditionally so re-encoding a decoded
// envelope is canonical. Encoding appends to the caller's buffer and
// allocates nothing, so the pooled transport and the server session loop
// reuse frame buffers; decoding validates every length claim against the
// remaining input, never panics, and retains none of its input (decoded
// values own their memory; names of nodes and rings are interned, see
// intern). It is a stateless value, safe for concurrent use.
type Binary struct{}

var (
	errTruncated = errors.New("wire: truncated binary envelope")
	errTrailing  = errors.New("wire: trailing bytes after binary envelope")
	errVarint    = errors.New("wire: malformed varint")
)

// Request field mask bits, in encode order.
const (
	rqLayer = 1 << iota
	rqKey
	rqName
	rqPeer
	rqPeers
	rqTable
	rqRetired // the retired put's value: reserved, and refused on decode
	rqItems
	rqHierarchical // no body: the bit is the value
	rqKeyHi
	rqBuckets
	rqEvents

	rqKnown = (rqEvents<<1 - 1) &^ rqRetired
)

// Response field mask bits, in encode order. The four bools ride in the
// mask; the rest gate a body field.
const (
	rsOK = 1 << iota
	rsDone
	rsOwner
	rsFound
	rsErr
	rsNext
	rsSelf
	rsRingNames
	rsLandmarks
	rsCoord
	rsSucc
	rsPred
	rsTable
	rsValue
	rsVersion
	rsWriter
	rsApplied
	rsExpire
	rsTombstone // no body: the bit is the value
	rsDigests
	rsItems
	rsEvents

	rsKnown = rsEvents<<1 - 1
)

// AppendRequest appends one encoded request envelope to dst and returns
// the extended slice.
func (Binary) AppendRequest(dst []byte, req *Request) ([]byte, error) {
	dst = append(dst, byte(req.Type))
	var mask uint64
	if req.Layer != 0 {
		mask |= rqLayer
	}
	if req.Key != ([20]byte{}) {
		mask |= rqKey
	}
	if req.Name != "" {
		mask |= rqName
	}
	if req.Peer != (Peer{}) {
		mask |= rqPeer
	}
	if len(req.Peers) > 0 {
		mask |= rqPeers
	}
	if req.Table != (RingTable{}) {
		mask |= rqTable
	}
	if len(req.Items) > 0 {
		mask |= rqItems
	}
	if req.Hierarchical {
		mask |= rqHierarchical
	}
	if req.KeyHi != ([20]byte{}) {
		mask |= rqKeyHi
	}
	if len(req.Buckets) > 0 {
		mask |= rqBuckets
	}
	if len(req.Events) > 0 {
		mask |= rqEvents
	}
	dst = binary.AppendUvarint(dst, mask)
	if mask&rqLayer != 0 {
		dst = binary.AppendVarint(dst, int64(req.Layer))
	}
	if mask&rqKey != 0 {
		dst = append(dst, req.Key[:]...)
	}
	if mask&rqName != 0 {
		dst = appendString(dst, req.Name)
	}
	if mask&rqPeer != 0 {
		dst = appendPeer(dst, req.Peer)
	}
	if mask&rqPeers != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(req.Peers)))
		for _, p := range req.Peers {
			dst = appendPeer(dst, p)
		}
	}
	if mask&rqTable != 0 {
		dst = appendTable(dst, &req.Table)
	}
	if mask&rqItems != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(req.Items)))
		for i := range req.Items {
			dst = appendItem(dst, &req.Items[i])
		}
	}
	if mask&rqKeyHi != 0 {
		dst = append(dst, req.KeyHi[:]...)
	}
	if mask&rqBuckets != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(req.Buckets)))
		for _, b := range req.Buckets {
			dst = binary.AppendUvarint(dst, uint64(b))
		}
	}
	if mask&rqEvents != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(req.Events)))
		for i := range req.Events {
			dst = appendEvent(dst, &req.Events[i])
		}
	}
	return dst, nil
}

// DecodeRequest decodes one request envelope from a complete frame
// payload.
func (Binary) DecodeRequest(data []byte) (Request, error) {
	var req Request
	err := decodeRequest(data, &req)
	return req, err
}

// decodeRequest decodes into *req, which the caller hands over zeroed: the
// session loop decodes straight into its pooled record, so no Request is
// copied on the reader's stack.
func decodeRequest(data []byte, req *Request) error {
	r := breader{b: data}
	t, err := r.u8()
	if err != nil {
		return err
	}
	req.Type = MsgType(t)
	mask, err := r.uvarint()
	if err != nil {
		return err
	}
	if mask&^uint64(rqKnown) != 0 {
		return fmt.Errorf("wire: unknown request field bits %#x", mask&^uint64(rqKnown))
	}
	if mask&rqLayer != 0 {
		if req.Layer, err = r.vint(); err != nil {
			return err
		}
	}
	if mask&rqKey != 0 {
		if req.Key, err = r.id(); err != nil {
			return err
		}
	}
	if mask&rqName != 0 {
		if req.Name, err = r.str(); err != nil {
			return err
		}
	}
	if mask&rqPeer != 0 {
		if req.Peer, err = r.peer(); err != nil {
			return err
		}
	}
	if mask&rqPeers != 0 {
		if req.Peers, err = r.peers(); err != nil {
			return err
		}
	}
	if mask&rqTable != 0 {
		if req.Table, err = r.table(); err != nil {
			return err
		}
	}
	if mask&rqItems != 0 {
		if req.Items, err = r.items(); err != nil {
			return err
		}
	}
	if mask&rqKeyHi != 0 {
		if req.KeyHi, err = r.id(); err != nil {
			return err
		}
	}
	if mask&rqBuckets != 0 {
		if req.Buckets, err = r.buckets(); err != nil {
			return err
		}
	}
	if mask&rqEvents != 0 {
		if req.Events, err = r.events(); err != nil {
			return err
		}
	}
	req.Hierarchical = mask&rqHierarchical != 0
	if r.off != len(r.b) {
		return errTrailing
	}
	return nil
}

// AppendResponse appends one encoded response envelope to dst.
func (Binary) AppendResponse(dst []byte, resp *Response) ([]byte, error) {
	var mask uint64
	if resp.OK {
		mask |= rsOK
	}
	if resp.Done {
		mask |= rsDone
	}
	if resp.Owner {
		mask |= rsOwner
	}
	if resp.Found {
		mask |= rsFound
	}
	if resp.Err != "" {
		mask |= rsErr
	}
	if resp.Next != (Peer{}) {
		mask |= rsNext
	}
	if resp.Self != (Peer{}) {
		mask |= rsSelf
	}
	if len(resp.RingNames) > 0 {
		mask |= rsRingNames
	}
	if len(resp.Landmarks) > 0 {
		mask |= rsLandmarks
	}
	if resp.Coord != ([2]float64{}) {
		mask |= rsCoord
	}
	if len(resp.Succ) > 0 {
		mask |= rsSucc
	}
	if resp.Pred != (Peer{}) {
		mask |= rsPred
	}
	if resp.Table != (RingTable{}) {
		mask |= rsTable
	}
	if len(resp.Value) > 0 {
		mask |= rsValue
	}
	if resp.Version != 0 {
		mask |= rsVersion
	}
	if resp.Writer != "" {
		mask |= rsWriter
	}
	if resp.Applied != 0 {
		mask |= rsApplied
	}
	if resp.Expire != 0 {
		mask |= rsExpire
	}
	if resp.Tombstone {
		mask |= rsTombstone
	}
	if len(resp.Digests) > 0 {
		mask |= rsDigests
	}
	if len(resp.Items) > 0 {
		mask |= rsItems
	}
	if len(resp.Events) > 0 {
		mask |= rsEvents
	}
	dst = binary.AppendUvarint(dst, mask)
	if mask&rsErr != 0 {
		dst = appendString(dst, resp.Err)
	}
	if mask&rsNext != 0 {
		dst = appendPeer(dst, resp.Next)
	}
	if mask&rsSelf != 0 {
		dst = appendPeer(dst, resp.Self)
	}
	if mask&rsRingNames != 0 {
		dst = appendStrings(dst, resp.RingNames)
	}
	if mask&rsLandmarks != 0 {
		dst = appendStrings(dst, resp.Landmarks)
	}
	if mask&rsCoord != 0 {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(resp.Coord[0]))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(resp.Coord[1]))
	}
	if mask&rsSucc != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(resp.Succ)))
		for _, p := range resp.Succ {
			dst = appendPeer(dst, p)
		}
	}
	if mask&rsPred != 0 {
		dst = appendPeer(dst, resp.Pred)
	}
	if mask&rsTable != 0 {
		dst = appendTable(dst, &resp.Table)
	}
	if mask&rsValue != 0 {
		dst = appendBlob(dst, resp.Value)
	}
	if mask&rsVersion != 0 {
		dst = binary.AppendUvarint(dst, resp.Version)
	}
	if mask&rsWriter != 0 {
		dst = appendString(dst, resp.Writer)
	}
	if mask&rsApplied != 0 {
		dst = binary.AppendVarint(dst, int64(resp.Applied))
	}
	if mask&rsExpire != 0 {
		dst = binary.AppendUvarint(dst, resp.Expire)
	}
	if mask&rsDigests != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(resp.Digests)))
		for _, d := range resp.Digests {
			dst = binary.BigEndian.AppendUint64(dst, d)
		}
	}
	if mask&rsItems != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(resp.Items)))
		for i := range resp.Items {
			dst = appendItem(dst, &resp.Items[i])
		}
	}
	if mask&rsEvents != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(resp.Events)))
		for i := range resp.Events {
			dst = appendEvent(dst, &resp.Events[i])
		}
	}
	return dst, nil
}

// DecodeResponse decodes one response envelope from a frame payload.
func (Binary) DecodeResponse(data []byte) (Response, error) {
	var resp Response
	r := breader{b: data}
	mask, err := r.uvarint()
	if err != nil {
		return resp, err
	}
	if mask&^uint64(rsKnown) != 0 {
		return resp, fmt.Errorf("wire: unknown response field bits %#x", mask&^uint64(rsKnown))
	}
	resp.OK = mask&rsOK != 0
	resp.Done = mask&rsDone != 0
	resp.Owner = mask&rsOwner != 0
	resp.Found = mask&rsFound != 0
	if mask&rsErr != 0 {
		if resp.Err, err = r.str(); err != nil {
			return resp, err
		}
	}
	if mask&rsNext != 0 {
		if resp.Next, err = r.peer(); err != nil {
			return resp, err
		}
	}
	if mask&rsSelf != 0 {
		if resp.Self, err = r.peer(); err != nil {
			return resp, err
		}
	}
	if mask&rsRingNames != 0 {
		if resp.RingNames, err = r.strings(); err != nil {
			return resp, err
		}
	}
	if mask&rsLandmarks != 0 {
		if resp.Landmarks, err = r.strings(); err != nil {
			return resp, err
		}
	}
	if mask&rsCoord != 0 {
		for i := 0; i < 2; i++ {
			raw, ferr := r.take(8)
			if ferr != nil {
				return resp, ferr
			}
			resp.Coord[i] = math.Float64frombits(binary.BigEndian.Uint64(raw))
		}
	}
	if mask&rsSucc != 0 {
		if resp.Succ, err = r.peers(); err != nil {
			return resp, err
		}
	}
	if mask&rsPred != 0 {
		if resp.Pred, err = r.peer(); err != nil {
			return resp, err
		}
	}
	if mask&rsTable != 0 {
		if resp.Table, err = r.table(); err != nil {
			return resp, err
		}
	}
	if mask&rsValue != 0 {
		if resp.Value, err = r.blob(); err != nil {
			return resp, err
		}
	}
	if mask&rsVersion != 0 {
		if resp.Version, err = r.uvarint(); err != nil {
			return resp, err
		}
	}
	if mask&rsWriter != 0 {
		if resp.Writer, err = r.str(); err != nil {
			return resp, err
		}
	}
	if mask&rsApplied != 0 {
		if resp.Applied, err = r.vint(); err != nil {
			return resp, err
		}
	}
	if mask&rsExpire != 0 {
		if resp.Expire, err = r.uvarint(); err != nil {
			return resp, err
		}
	}
	resp.Tombstone = mask&rsTombstone != 0
	if mask&rsDigests != 0 {
		if resp.Digests, err = r.digests(); err != nil {
			return resp, err
		}
	}
	if mask&rsItems != 0 {
		if resp.Items, err = r.items(); err != nil {
			return resp, err
		}
	}
	if mask&rsEvents != 0 {
		if resp.Events, err = r.events(); err != nil {
			return resp, err
		}
	}
	if r.off != len(r.b) {
		return resp, errTrailing
	}
	return resp, nil
}

// ---- encode helpers (append-only, no allocation beyond dst growth) ----

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBlob(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendString(dst, s)
	}
	return dst
}

func appendPeer(dst []byte, p Peer) []byte {
	dst = appendString(dst, p.Addr)
	return append(dst, p.ID[:]...)
}

func appendTable(dst []byte, t *RingTable) []byte {
	dst = binary.AppendVarint(dst, int64(t.Layer))
	dst = appendString(dst, t.Name)
	dst = appendPeer(dst, t.Smallest)
	dst = appendPeer(dst, t.SecondSm)
	dst = appendPeer(dst, t.Largest)
	return appendPeer(dst, t.SecondLg)
}

func appendEvent(dst []byte, ev *RouteEvent) []byte {
	dst = binary.AppendVarint(dst, int64(ev.Layer))
	dst = appendString(dst, ev.Ring)
	dst = appendPeer(dst, ev.Peer)
	dst = append(dst, ev.Kind)
	return binary.AppendUvarint(dst, ev.Stamp)
}

func appendItem(dst []byte, it *StoreItem) []byte {
	dst = appendString(dst, it.Key)
	dst = appendBlob(dst, it.Value)
	dst = binary.AppendUvarint(dst, it.Version)
	dst = appendString(dst, it.Writer)
	dst = binary.AppendUvarint(dst, it.Expire)
	var tomb byte
	if it.Tombstone {
		tomb = 1
	}
	return append(dst, tomb)
}

// ---- decode helpers ----

// breader walks an envelope payload with explicit bounds checks; every
// length claim is validated against the bytes actually remaining, so
// hostile input errors out instead of allocating or panicking.
type breader struct {
	b   []byte
	off int
}

func (r *breader) remaining() int { return len(r.b) - r.off }

func (r *breader) u8() (byte, error) {
	if r.remaining() < 1 {
		return 0, errTruncated
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *breader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		if n == 0 {
			return 0, errTruncated
		}
		return 0, errVarint
	}
	r.off += n
	return v, nil
}

func (r *breader) vint() (int, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		if n == 0 {
			return 0, errTruncated
		}
		return 0, errVarint
	}
	r.off += n
	return int(v), nil
}

func (r *breader) take(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, errTruncated
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v, nil
}

// length reads a count/size claim and rejects anything that cannot fit in
// the remaining input given a minimum encoded size per unit.
func (r *breader) length(minUnit int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.remaining()/minUnit) {
		return 0, errTruncated
	}
	return int(v), nil
}

func (r *breader) str() (string, error) {
	raw, err := r.raw()
	return string(raw), err
}

// name reads a string naming a node or a ring (an address, a ring name, a
// landmark), interned. Keys, values, writer stamps and error text are str.
func (r *breader) name() (string, error) {
	raw, err := r.raw()
	return intern(raw), err
}

// raw reads one length-prefixed string's bytes, still in the input.
func (r *breader) raw() ([]byte, error) {
	n, err := r.length(1)
	if err != nil {
		return nil, err
	}
	return r.take(n)
}

// The intern table is direct-mapped and process-wide, not per connection:
// any connection's replies may name any peer. Whatever peers send, it
// holds at most internSlots × (16 B + internMaxLen) ≈ 320 KiB, so a flood
// of distinct names costs allocations, never memory or a wrong value.
const (
	internSlots  = 4096 // a power of two: 32 KiB of pointers
	internMaxLen = 64   // longer strings bypass the table
)

var internTable [internSlots]atomic.Pointer[string]

// intern returns a string equal to raw: the slot's when it matches (the
// comparison allocates nothing), else a new one that takes the slot.
func intern(raw []byte) string {
	if len(raw) == 0 || len(raw) > internMaxLen {
		return string(raw)
	}
	slot := &internTable[internSlot(raw)]
	if p := slot.Load(); p != nil && *p == string(raw) {
		return *p
	}
	s := string(raw)
	slot.Store(&s)
	return s
}

// internSlot is raw's slot: a fixed hash (FNV-1a), so runs repeat.
func internSlot(raw []byte) uint32 {
	h := uint32(2166136261)
	for _, b := range raw {
		h = (h ^ uint32(b)) * 16777619
	}
	return h & (internSlots - 1)
}

// blob returns a copy: frame payload buffers are pooled, so decoded
// values must own their memory.
func (r *breader) blob() ([]byte, error) {
	n, err := r.length(1)
	if err != nil {
		return nil, err
	}
	raw, err := r.take(n)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil // canonical: absent and empty are the same value
	}
	out := make([]byte, n)
	copy(out, raw)
	return out, nil
}

func (r *breader) strings() ([]string, error) {
	n, err := r.length(1)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		s, err := r.name()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (r *breader) id() ([20]byte, error) {
	var id [20]byte
	raw, err := r.take(len(id))
	if err != nil {
		return id, err
	}
	copy(id[:], raw)
	return id, nil
}

func (r *breader) peer() (Peer, error) {
	var p Peer
	var err error
	if p.Addr, err = r.name(); err != nil {
		return p, err
	}
	p.ID, err = r.id()
	return p, err
}

func (r *breader) peers() ([]Peer, error) {
	// A peer is at least 21 bytes (empty-addr length prefix + raw ID).
	n, err := r.length(21)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]Peer, 0, n)
	for i := 0; i < n; i++ {
		p, err := r.peer()
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func (r *breader) table() (RingTable, error) {
	var t RingTable
	var err error
	if t.Layer, err = r.vint(); err != nil {
		return t, err
	}
	if t.Name, err = r.name(); err != nil {
		return t, err
	}
	for _, dst := range []*Peer{&t.Smallest, &t.SecondSm, &t.Largest, &t.SecondLg} {
		if *dst, err = r.peer(); err != nil {
			return t, err
		}
	}
	return t, nil
}

func (r *breader) items() ([]StoreItem, error) {
	// A store item is at least 6 bytes (three length prefixes, version,
	// expire and the tombstone byte).
	n, err := r.length(6)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]StoreItem, 0, n)
	for i := 0; i < n; i++ {
		var it StoreItem
		if it.Key, err = r.str(); err != nil {
			return nil, err
		}
		if it.Value, err = r.blob(); err != nil {
			return nil, err
		}
		if it.Version, err = r.uvarint(); err != nil {
			return nil, err
		}
		if it.Writer, err = r.str(); err != nil {
			return nil, err
		}
		if it.Expire, err = r.uvarint(); err != nil {
			return nil, err
		}
		tomb, err := r.u8()
		if err != nil {
			return nil, err
		}
		if tomb > 1 {
			return nil, fmt.Errorf("wire: store item tombstone byte %d", tomb)
		}
		it.Tombstone = tomb == 1
		out = append(out, it)
	}
	return out, nil
}

func (r *breader) events() ([]RouteEvent, error) {
	// A route event is at least 25 bytes (layer varint, empty-ring length
	// prefix, peer, kind byte, stamp varint).
	n, err := r.length(25)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]RouteEvent, 0, n)
	for i := 0; i < n; i++ {
		var ev RouteEvent
		if ev.Layer, err = r.vint(); err != nil {
			return nil, err
		}
		if ev.Ring, err = r.name(); err != nil {
			return nil, err
		}
		if ev.Peer, err = r.peer(); err != nil {
			return nil, err
		}
		if ev.Kind, err = r.u8(); err != nil {
			return nil, err
		}
		if ev.Kind > RouteEvict {
			return nil, fmt.Errorf("wire: route event kind byte %d", ev.Kind)
		}
		if ev.Stamp, err = r.uvarint(); err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	return out, nil
}

func (r *breader) buckets() ([]uint32, error) {
	// A bucket index is at least one varint byte.
	n, err := r.length(1)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if v > math.MaxUint32 {
			return nil, fmt.Errorf("wire: bucket index %d overflows uint32", v)
		}
		out = append(out, uint32(v))
	}
	return out, nil
}

func (r *breader) digests() ([]uint64, error) {
	n, err := r.length(8)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		raw, err := r.take(8)
		if err != nil {
			return nil, err
		}
		out = append(out, binary.BigEndian.Uint64(raw))
	}
	return out, nil
}
