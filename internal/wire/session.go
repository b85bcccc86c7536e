package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Session preamble: the first bytes a client writes on a new connection,
// before any frame.
//
//	[0x00]['H']['W'][version u8][envelope format u8][3 reserved zero bytes]
//
// The leading zero byte can never begin a frame of plausible length, so a
// peer speaking an older or foreign protocol fails fast with a clear
// error instead of a decode hang. The envelope-format byte names the
// payload encoding; Binary is the only one (1 was the retired gob
// encoding), and a session announcing any other value is refused.
const (
	preambleLen     = 8
	protocolVersion = 1
	envelopeFormat  = 2
)

// errEnvelopeFormat refuses a session whose preamble announces an
// envelope format other than envelopeFormat.
var errEnvelopeFormat = errors.New("wire: unsupported envelope format")

// preamble is the session preamble every client writes.
var preamble = [preambleLen]byte{0x00, 'H', 'W', protocolVersion, envelopeFormat}

// readPreamble consumes and validates a session preamble.
func readPreamble(r io.Reader) error {
	var p [preambleLen]byte
	if _, err := io.ReadFull(r, p[:]); err != nil {
		return err
	}
	if p[0] != 0x00 || p[1] != 'H' || p[2] != 'W' {
		return fmt.Errorf("wire: bad session preamble %x", p[:3])
	}
	if p[3] != protocolVersion {
		return fmt.Errorf("wire: unsupported protocol version %d", p[3])
	}
	if p[4] != envelopeFormat {
		return fmt.Errorf("%w %d (preamble byte 4, want %d)", errEnvelopeFormat, p[4], envelopeFormat)
	}
	return nil
}

// Handler answers one decoded request. Handlers run on per-request
// goroutines and must not block on other RPCs to the same caller; the
// transport layer's handlers are pure local state transitions.
type Handler func(req Request) Response

// ServeOptions configures one server-side session (see ServeConn).
type ServeOptions struct {
	// WriteTimeout bounds each response write. The deadline is re-armed
	// from the current time for every frame, so it never accumulates
	// across the many exchanges of a long-lived multiplexed connection.
	// It also bounds the wait for the session preamble. 0 means
	// DefaultTimeout.
	WriteTimeout time.Duration
	// Observe, when non-nil, is invoked once per served request with the
	// request type and whether the handler answered OK.
	Observe func(t MsgType, ok bool)
}

// idleTimeout bounds the wait for the next request frame; a pooled
// client that goes quiet longer than this has its connection closed (it
// will transparently redial).
const idleTimeout = 2 * time.Minute

// ServeConn runs one server-side session to completion: it reads the
// preamble, then serves framed requests — each on its own goroutine, so
// pipelined requests overlap and responses return in completion order,
// matched to their request by tag. It closes conn and waits for all
// in-flight handlers before returning. The returned error is nil for a
// clean shutdown (peer closed or idle timeout after a quiet period) and
// describes the protocol or I/O failure otherwise.
func ServeConn(conn net.Conn, h Handler, o ServeOptions) error {
	defer conn.Close()
	wt := o.WriteTimeout
	if wt <= 0 {
		wt = DefaultTimeout
	}

	// Every client writes the preamble in the same breath as the dial, so
	// a peer that connects and stays silent gets the write timeout, not
	// the idle timeout a quiet but established session is allowed.
	if err := conn.SetReadDeadline(time.Now().Add(wt)); err != nil {
		return err
	}
	if err := readPreamble(conn); err != nil {
		if errors.Is(err, io.EOF) {
			return nil // probe connect-and-close
		}
		return err
	}

	s := &session{conn: conn, handler: h, observe: o.Observe, writeTimeout: wt}
	defer s.wg.Wait()

	for {
		if err := conn.SetReadDeadline(time.Now().Add(idleTimeout)); err != nil {
			return err
		}
		pb, payload, tag, rerr := readFrame(conn, &s.hdr)
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				return nil // peer closed between frames: clean shutdown
			}
			return rerr
		}
		x := servedPool.Get().(*served)
		var derr error
		x.req, derr = (Binary{}).DecodeRequest(payload)
		putFrameBuf(pb)
		if derr != nil {
			// Framing survives a bad payload, but a client whose encoder
			// disagrees with ours is not worth keeping: drop the session.
			return fmt.Errorf("wire: decoding request frame: %w", derr)
		}
		x.s, x.tag = s, tag
		s.wg.Add(1)
		go x.serve()
	}
}

// session is what one ServeConn shares with its per-request goroutines.
type session struct {
	conn         net.Conn
	handler      Handler
	observe      func(t MsgType, ok bool)
	writeTimeout time.Duration
	wmu          sync.Mutex // serializes response frames
	wg           sync.WaitGroup
	hdr          [frameHeader]byte // the ServeConn loop's frame header
}

// served is the server's record of one in-flight request: everything
// its goroutine needs, so starting it copies a pointer instead of a
// Request, and the response is encoded from memory that is already on
// the heap. The goroutine is the record's only holder and pools it when
// it is done.
type served struct {
	s    *session
	tag  uint64
	req  Request
	resp Response
}

var servedPool = sync.Pool{New: func() interface{} { return new(served) }}

// serve answers the request and returns the record to the pool.
func (x *served) serve() {
	s := x.s
	defer s.wg.Done()
	x.resp = s.handler(x.req)
	if s.observe != nil {
		s.observe(x.req.Type, x.resp.OK)
	}
	writeFrame(s.conn, &s.wmu, x.tag, &x.resp, s.writeTimeout)
	*x = served{} // the pool keeps none of the request's or response's memory alive
	servedPool.Put(x)
}

// writeFrame encodes resp and writes it as one tagged frame. Encoding
// happens outside the write lock; the write deadline is re-armed per
// frame (never accumulated) while the lock is held, so one slow reader
// cannot extend another response's budget.
func writeFrame(conn net.Conn, wmu *sync.Mutex, tag uint64, resp *Response, timeout time.Duration) error {
	pb := getFrameBuf()
	buf := append((*pb)[:0], frameHole[:]...)
	buf, err := Binary{}.AppendResponse(buf, resp)
	if err == nil {
		putFrameHeader(buf, tag)
		wmu.Lock()
		err = conn.SetWriteDeadline(time.Now().Add(timeout))
		if err == nil {
			_, err = conn.Write(buf)
		}
		wmu.Unlock()
	}
	*pb = buf
	putFrameBuf(pb)
	return err
}
