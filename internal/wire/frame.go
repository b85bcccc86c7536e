package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Frame layout, both directions, after the session preamble:
//
//	[4 bytes big-endian payload length][8 bytes big-endian tag][payload]
//
// The tag matches a response frame to its request on a multiplexed
// connection. The length counts payload bytes only.
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

// readFrame reads one frame from r: it parks on the header, read into
// the connection's own hdr (on the heap already; an array of readFrame's
// would move there per frame, crossing io.Reader), and only then takes a
// frameBufPool buffer for the payload, so an idle connection holds none.
// The caller returns pb with putFrameBuf once payload is decoded. pb is
// nil whenever err is not; a payload above maxFramePayload is an error.
func readFrame(r io.Reader, hdr *[frameHeader]byte) (pb *[]byte, payload []byte, tag uint64, err error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n > maxFramePayload {
		return nil, nil, 0, fmt.Errorf("wire: frame payload %d exceeds limit %d", n, maxFramePayload)
	}
	tag = binary.BigEndian.Uint64(hdr[4:12])
	pb = getFrameBuf()
	if cap(*pb) < int(n) {
		*pb = make([]byte, n)
	}
	payload = (*pb)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		putFrameBuf(pb)
		return nil, nil, tag, err
	}
	return pb, payload, tag, nil
}

// frameBufPool recycles frame buffers per frame, never per connection:
// a steady-state exchange allocates nothing for framing, and an idle
// connection holds no buffer.
var frameBufPool = sync.Pool{
	New: func() interface{} {
		b := make([]byte, 0, 512)
		return &b
	},
}

// maxPooledFrameBuf bounds the buffers frameBufPool keeps, so one large
// frame does not pin its buffer behind every later one.
const maxPooledFrameBuf = 64 << 10

func getFrameBuf() *[]byte { return frameBufPool.Get().(*[]byte) }

func putFrameBuf(b *[]byte) {
	if cap(*b) <= maxPooledFrameBuf {
		frameBufPool.Put(b)
	}
}
