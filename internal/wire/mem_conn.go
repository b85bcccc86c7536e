package wire

import (
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// memConn is one end of a MemNet connection: a synchronous, unbuffered,
// full-duplex in-memory stream with net.Pipe's semantics — a Write
// returns once Reads on the other end have taken every byte, and whole
// Writes never interleave — whose deadlines re-arm one timer per
// direction. net.Pipe builds a timer and a closure on every
// Set*Deadline, and a wire exchange sets three.
type memConn struct {
	rd, wr *memPipe // the direction this end reads from, the one it writes to
	// addr is the listener's name, the only address a MemNet connection
	// has: the accepted end's local address and the dialing end's remote.
	addr memAddr
}

// newMemConnPair returns the two ends of a fresh connection.
func newMemConnPair(addr string) (client, server *memConn) {
	up, down := new(memPipe), new(memPipe)
	up.cond.L, down.cond.L = &up.mu, &down.mu
	return &memConn{rd: down, wr: up, addr: memAddr(addr)}, &memConn{rd: up, wr: down, addr: memAddr(addr)}
}

func (c *memConn) Read(b []byte) (int, error)  { return c.rd.read(b) }
func (c *memConn) Write(b []byte) (int, error) { return c.wr.write(b) }

// Close fails this end's blocked and later calls with io.ErrClosedPipe;
// the other end reads io.EOF and fails writes with io.ErrClosedPipe.
func (c *memConn) Close() error {
	c.rd.close(&c.rd.rclosed)
	c.wr.close(&c.wr.wclosed)
	return nil
}

func (c *memConn) LocalAddr() net.Addr  { return c.addr }
func (c *memConn) RemoteAddr() net.Addr { return c.addr }

func (c *memConn) SetDeadline(t time.Time) error {
	if err := c.SetReadDeadline(t); err != nil {
		return err
	}
	return c.SetWriteDeadline(t)
}

func (c *memConn) SetReadDeadline(t time.Time) error  { return c.rd.setDeadline(&c.rd.rdl, t) }
func (c *memConn) SetWriteDeadline(t time.Time) error { return c.wr.setDeadline(&c.wr.wdl, t) }

// memPipe is one direction of a connection. A Write parks its argument
// in buf and waits; Reads copy out of it under mu and wake the writer
// once it is empty. Nothing is buffered: buf aliases the blocked
// writer's slice, so a connection owns no memory beyond this struct.
type memPipe struct {
	wmu sync.Mutex // held for the length of a Write, so Writes never interleave

	mu       sync.Mutex
	cond     sync.Cond // every change a blocked Read or Write waits for is broadcast
	buf      []byte    // unread bytes of the Write in progress
	rclosed  bool      // the reading end was closed
	wclosed  bool      // the writing end was closed
	rdl, wdl memDeadline
}

// memDeadline is one I/O deadline of a pipe, guarded by the pipe's mu.
type memDeadline struct {
	timer   *time.Timer // made by the first future deadline, re-armed by later ones
	armed   bool        // the timer is set and its callback has not yet taken mu
	stale   int         // callbacks in flight for deadlines since replaced
	expired bool
}

// disarm cancels the pending expiry, if any. A timer that can no longer
// be stopped has its callback in flight (blocked on mu, which the caller
// holds); it belongs to the deadline being replaced, so fire skips it.
func (d *memDeadline) disarm() {
	if d.armed && !d.timer.Stop() {
		d.stale++
	}
	d.armed = false
}

func (p *memPipe) setDeadline(d *memDeadline, t time.Time) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rclosed || p.wclosed {
		return io.ErrClosedPipe
	}
	d.disarm()
	d.expired = false
	if t.IsZero() {
		return nil
	}
	//lint:allow nodeterm a net.Conn deadline is a wall-clock instant by contract; like net.Pipe's it expires only once the peer is already wedged, so it shapes no replayed result
	wait := time.Until(t)
	if wait <= 0 {
		d.expired = true
		p.cond.Broadcast()
		return nil
	}
	d.armed = true
	if d.timer == nil {
		//lint:allow nodeterm the timeout guard behind the deadline above; made once per direction and re-armed with Reset
		d.timer = time.AfterFunc(wait, func() { p.fire(d) })
	} else {
		d.timer.Reset(wait)
	}
	return nil
}

// fire is the timer callback: it expires d unless d was re-set or
// disarmed after the timer fired.
func (p *memPipe) fire(d *memDeadline) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if d.stale > 0 {
		d.stale--
		return
	}
	d.armed = false
	d.expired = true
	p.cond.Broadcast()
}

// close marks one end (p.rclosed or p.wclosed) closed. Either end
// closing fails all I/O in this direction at once, so both deadlines
// are moot and their timers are released.
func (p *memPipe) close(end *bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	*end = true
	p.rdl.disarm()
	p.wdl.disarm()
	p.cond.Broadcast()
}

func (p *memPipe) read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		switch {
		case p.rclosed:
			return 0, io.ErrClosedPipe
		case p.wclosed:
			return 0, io.EOF
		case p.rdl.expired:
			return 0, os.ErrDeadlineExceeded
		case len(p.buf) > 0:
			n := copy(b, p.buf)
			p.buf = p.buf[n:]
			if len(p.buf) == 0 {
				p.cond.Broadcast()
			}
			return n, nil
		}
		p.cond.Wait()
	}
}

// writeErr reports why a Write cannot proceed, or nil.
func (p *memPipe) writeErr() error {
	switch {
	case p.wclosed, p.rclosed:
		return io.ErrClosedPipe
	case p.wdl.expired:
		return os.ErrDeadlineExceeded
	}
	return nil
}

func (p *memPipe) write(b []byte) (n int, err error) {
	p.wmu.Lock() // the whole of b goes out before the next Write's first byte
	defer p.wmu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	if err = p.writeErr(); err != nil {
		return 0, err
	}
	p.buf = b
	p.cond.Broadcast()
	for len(p.buf) > 0 {
		if err = p.writeErr(); err != nil {
			break
		}
		p.cond.Wait()
	}
	n = len(b) - len(p.buf)
	p.buf = nil
	return n, err
}
