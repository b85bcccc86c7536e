package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"sync"
)

// Codec serializes the two protocol envelopes. Implementations are
// stateless values safe for concurrent use; the encode side appends to a
// caller-supplied buffer so hot paths (the pooled transport, the server
// session loop) can reuse frame buffers with zero allocations per call.
//
// Two codecs exist: Binary (the default wire format — length-checked,
// field-masked, reflection-free) and Gob (the original format, kept as a
// compatibility codec). A connection's codec is chosen by the client in
// the session preamble, so nodes answer either without configuration.
type Codec interface {
	// Name is the codec's registry name ("binary", "gob"), the value
	// accepted by CodecByName and the hieras-node -codec flag.
	Name() string
	// ID is the codec's preamble byte.
	ID() byte
	// AppendRequest appends one encoded request envelope to dst and
	// returns the extended slice.
	AppendRequest(dst []byte, req *Request) ([]byte, error)
	// DecodeRequest decodes one request envelope from a complete frame
	// payload. It must never panic on arbitrary input, and must not
	// retain data (decoded values own their memory).
	DecodeRequest(data []byte) (Request, error)
	// AppendResponse appends one encoded response envelope to dst.
	AppendResponse(dst []byte, resp *Response) ([]byte, error)
	// DecodeResponse decodes one response envelope from a frame payload.
	DecodeResponse(data []byte) (Response, error)
}

// Codec preamble identifiers (see preamble layout in session.go).
const (
	codecIDGob    byte = 1
	codecIDBinary byte = 2
)

// Codecs returns the registered codecs, default first.
func Codecs() []Codec { return []Codec{Binary{}, Gob{}} }

// DefaultCodec is the codec used when none is configured.
func DefaultCodec() Codec { return Binary{} }

// CodecByName resolves a codec flag value ("" = default).
func CodecByName(name string) (Codec, error) {
	switch name {
	case "", "binary":
		return Binary{}, nil
	case "gob":
		return Gob{}, nil
	}
	return nil, fmt.Errorf("wire: unknown codec %q (want binary or gob)", name)
}

// codecByID resolves a preamble byte on the server side.
func codecByID(id byte) (Codec, error) {
	switch id {
	case codecIDGob:
		return Gob{}, nil
	case codecIDBinary:
		return Binary{}, nil
	}
	return nil, fmt.Errorf("wire: unknown codec id %d", id)
}

// Gob is the compatibility codec: the envelopes encoded with
// encoding/gob, one self-describing stream per frame. It trades speed
// and allocations for schema lenience (unknown fields are skipped), so
// it remains useful for debugging and mixed-version experiments.
type Gob struct{}

// Name implements Codec.
func (Gob) Name() string { return "gob" }

// ID implements Codec.
func (Gob) ID() byte { return codecIDGob }

// AppendRequest implements Codec.
func (Gob) AppendRequest(dst []byte, req *Request) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(req); err != nil {
		return dst, err
	}
	return append(dst, buf.Bytes()...), nil
}

// DecodeRequest implements Codec.
func (Gob) DecodeRequest(data []byte) (Request, error) {
	var req Request
	err := gob.NewDecoder(bytes.NewReader(data)).Decode(&req)
	return req, err
}

// AppendResponse implements Codec.
func (Gob) AppendResponse(dst []byte, resp *Response) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(resp); err != nil {
		return dst, err
	}
	return append(dst, buf.Bytes()...), nil
}

// DecodeResponse implements Codec.
func (Gob) DecodeResponse(data []byte) (Response, error) {
	var resp Response
	err := gob.NewDecoder(bytes.NewReader(data)).Decode(&resp)
	return resp, err
}

// Frame layout, both directions, after the session preamble:
//
//	[4 bytes big-endian payload length][8 bytes big-endian tag][payload]
//
// The tag matches a response frame to its request on a multiplexed
// connection; one-shot exchanges use tag 1. The length counts payload
// bytes only.
const frameHeader = 12

// maxFramePayload bounds one frame so a corrupt or hostile length prefix
// cannot force a giant allocation.
const maxFramePayload = 64 << 20

// putFrameHeader writes the header into buf[0:frameHeader] for a frame
// whose total encoded form is buf (header + payload).
func putFrameHeader(buf []byte, tag uint64) {
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(buf)-frameHeader))
	binary.BigEndian.PutUint64(buf[4:12], tag)
}

// readFrame reads one frame from r into buf's array, returning the
// payload in the (possibly grown) buffer. The header is read into the
// same array and parsed before the payload overwrites it: a header
// array of readFrame's own would move to the heap on every frame,
// because it crosses the io.Reader interface. A payload length above
// maxFramePayload is a protocol error.
func readFrame(r io.Reader, buf []byte) (payload []byte, tag uint64, err error) {
	if cap(buf) < frameHeader {
		buf = make([]byte, frameHeader, 512)
	}
	hdr := buf[:frameHeader]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return buf, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n > maxFramePayload {
		return buf, 0, fmt.Errorf("wire: frame payload %d exceeds limit %d", n, maxFramePayload)
	}
	tag = binary.BigEndian.Uint64(hdr[4:12])
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, tag, err
	}
	return buf, tag, nil
}

// frameBufPool recycles frame encode/decode buffers across calls; the
// pooled transport and the server session loop both draw from it, so a
// steady-state exchange allocates nothing for framing.
var frameBufPool = sync.Pool{
	New: func() interface{} {
		b := make([]byte, 0, 512)
		return &b
	},
}

func getFrameBuf() *[]byte  { return frameBufPool.Get().(*[]byte) }
func putFrameBuf(b *[]byte) { frameBufPool.Put(b) }
