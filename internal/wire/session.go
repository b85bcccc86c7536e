package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
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

// Handler answers one decoded request by value: the form tests and
// harnesses write, which ServeConn adapts onto Serve.
type Handler func(req Request) Response

// ServeOptions configures one server-side session (see Serve).
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

// ServeConn is Serve for a by-value Handler.
func ServeConn(conn net.Conn, h Handler, o ServeOptions) error {
	return Serve(conn, func(req *Request, resp *Response) { *resp = h(*req) }, o)
}

// Serve runs one server-side session to completion on the calling
// goroutine: it reads the preamble, then answers framed requests one at a
// time — read a frame, decode it, run h, write the response, and only
// then read the next. Responses therefore leave in arrival order (the
// client still matches them by tag), and a session is one goroutine
// whatever its client sends: a flood is held back by the transport, since
// the reader stops reading, not queued.
//
// The handler contract: h runs on the session's reader, so it must not
// block — no outgoing RPC, no wait on another request. It fills *resp,
// which it finds zeroed, from *req. It may keep what the fields of *req
// reference (decoded values own their memory) but not req or resp, whose
// pooled record is reused once h returns.
//
// Serve closes conn before returning. The returned error is nil for a
// clean shutdown (peer closed between frames) and describes the protocol
// or I/O failure otherwise — a failed response write included, since a
// frame cut off part-way would misalign every frame after it.
func Serve(conn net.Conn, h func(req *Request, resp *Response), o ServeOptions) error {
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

	if err := conn.SetReadDeadline(time.Now().Add(idleTimeout)); err != nil {
		return err
	}
	hdr := new([frameHeader]byte) // on the heap once: it crosses io.Reader
	for {
		pb, payload, tag, err := readFrame(conn, hdr)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil // peer closed between frames: clean shutdown
			}
			return err
		}
		// The idle wait for the next frame is armed before this one is
		// answered: the peer may close the moment it has its answer, and a
		// closed pipe refuses a deadline.
		err = conn.SetReadDeadline(time.Now().Add(idleTimeout))
		x := servedPool.Get().(*served)
		if err == nil {
			if err = decodeRequest(payload, &x.req); err != nil {
				// Framing survives a bad payload, but a client whose encoder
				// disagrees with ours is not worth keeping: drop the session.
				err = fmt.Errorf("wire: decoding request frame: %w", err)
			}
		}
		putFrameBuf(pb)
		if err == nil {
			h(&x.req, &x.resp)
			if o.Observe != nil {
				o.Observe(x.req.Type, x.resp.OK)
			}
			err = writeFrame(conn, tag, &x.resp, wt)
		}
		*x = served{} // the pool keeps none of the request's or response's memory alive
		servedPool.Put(x)
		if err != nil {
			return err
		}
	}
}

// served is the record one request is decoded into and answered from.
// Records are pooled per request, never per session: a parked session
// holds none, and the reader's stack holds pointers, not a 432 B Request
// and a 576 B Response.
type served struct {
	req  Request
	resp Response
}

var servedPool = sync.Pool{New: func() interface{} { return new(served) }}

// writeFrame encodes resp and writes it as one tagged frame. The write
// deadline is re-armed per frame, never accumulated. The caller
// serializes writes to conn; a session has one writer, its reader.
func writeFrame(conn net.Conn, tag uint64, resp *Response, timeout time.Duration) error {
	pb := getFrameBuf()
	buf := append((*pb)[:0], frameHole[:]...)
	buf, err := Binary{}.AppendResponse(buf, resp)
	if err == nil {
		putFrameHeader(buf, tag)
		err = conn.SetWriteDeadline(time.Now().Add(timeout))
		if err == nil {
			_, err = conn.Write(buf)
		}
	}
	*pb = buf
	putFrameBuf(pb)
	return err
}

// Detach and Answered are the copy rule of a request answered in-process,
// around a direct call of the handler (a function value would move the
// request and response to the heap): the handler gets its own copy of the
// request's values, which it may keep, and the caller its own copy of the
// answer's, as the codec gives a connection's ends; a refusal (!OK) is a
// *RemoteError, as from Pool.Call.
func Detach(req *Request) {
	req.Items = slices.Clone(req.Items)
	for i := range req.Items {
		req.Items[i].Value = append([]byte(nil), req.Items[i].Value...)
	}
}

// Answered is the second half of Detach's rule, for the answer to a
// request of type t.
func Answered(t MsgType, resp Response) (Response, error) {
	resp.Value = bytes.Clone(resp.Value)
	if !resp.OK {
		return resp, &RemoteError{Type: t, Msg: resp.Err}
	}
	return resp, nil
}
