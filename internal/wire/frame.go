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
