package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// PoolOptions configures a Pool.
type PoolOptions struct {
	// Dial opens connections (nil = TCP).
	Dial DialFunc
	// Timeout bounds connection establishment when the caller's context
	// allows more, and each frame write on a pooled connection; like the
	// server side, the write deadline is re-armed per frame
	// (0 = DefaultTimeout).
	Timeout time.Duration
	// ConnWrap, when non-nil, wraps every new connection before use —
	// the seam for byte accounting (Metrics.CountConn).
	ConnWrap func(net.Conn) net.Conn
}

// wedgeStrikes is the number of consecutive waiter timeouts (with no
// intervening completed exchange) after which a pooled connection is
// declared wedged and torn down.
const wedgeStrikes = 8

// errPoolClosed fails the exchanges of a closed pool, in flight and new.
var errPoolClosed = errors.New("wire: pool closed")

// Pool is the pooled, multiplexed wire client: it keeps one connection
// per peer, pipelines many tagged in-flight requests on it, and matches
// responses by tag, so concurrent exchanges to one peer share the
// connection instead of paying a dial each. A broken connection fails all
// its in-flight exchanges with a *NetError and is replaced on the next
// call. Pool implements Caller; cancellation is per-exchange (an
// abandoned tag, not a closed connection).
type Pool struct {
	o PoolOptions

	mu     sync.Mutex
	peers  map[string]*poolPeer
	closed bool

	// readers counts the connections' reader goroutines; Close waits
	// for them.
	readers sync.WaitGroup
}

// NewPool builds a pooled caller. Close releases its connections.
func NewPool(o PoolOptions) *Pool {
	if o.Dial == nil {
		o.Dial = tcpDial
	}
	if o.Timeout <= 0 {
		o.Timeout = DefaultTimeout
	}
	return &Pool{o: o, peers: make(map[string]*poolPeer)}
}

// Call implements Caller.
func (p *Pool) Call(ctx context.Context, addr string, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, &NetError{Addr: addr, Op: "dial", Sent: false, Err: context.Cause(ctx)}
	}
	pp := p.hold(addr)
	c, err := pp.conn(ctx)
	p.release(pp, c)
	if err != nil {
		return Response{}, err
	}
	return c.roundTrip(ctx, addr, req)
}

// Close tears down every pooled connection, failing their in-flight
// exchanges; a dial in flight is waited out (it is bounded by Timeout) so
// that the connection it produces is failed too. It returns once every
// connection's reader has exited. Calls on a closed pool fail without
// dialling.
func (p *Pool) Close() error {
	p.mu.Lock()
	peers := p.peers
	p.peers = nil
	p.closed = true
	p.mu.Unlock()
	for _, pp := range peers {
		pp.close()
	}
	p.readers.Wait()
	return nil
}

// hold returns addr's record, kept from pruning until release. On a
// closed pool it is a detached, closed one, so no caller can dial a
// connection Close will never reach.
func (p *Pool) hold(addr string) *poolPeer {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return &poolPeer{pool: p, addr: addr, closed: true, holds: 1}
	}
	pp, ok := p.peers[addr]
	if !ok {
		pp = &poolPeer{pool: p, addr: addr}
		p.peers[addr] = pp
	}
	pp.holds++
	return pp
}

// release lets go of a record hold returned, c being the connection the
// call got from it (nil when its dial failed). The last holder of a
// record without a live connection deletes it before its call returns.
func (p *Pool) release(pp *poolPeer, c *muxConn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pp.holds--
	if c == nil || c.broken() {
		p.pruneLocked(pp)
	}
}

// pruneLocked deletes pp from the pool unless a call holds it or its
// connection is live, so the pool keeps a record per peer it can reach,
// not one per address it ever called: under churn, the dead would
// otherwise pile up with history. The caller holds p.mu. pp.mu is free
// here, since only a held record dials.
func (p *Pool) pruneLocked(pp *poolPeer) {
	if pp.holds > 0 || p.peers[pp.addr] != pp {
		return
	}
	pp.mu.Lock()
	live := pp.c != nil && !pp.c.broken()
	pp.mu.Unlock()
	if !live {
		delete(p.peers, pp.addr)
	}
}

// poolPeer holds one peer's connection.
type poolPeer struct {
	pool  *Pool
	addr  string
	holds int32 // calls between hold and release; guarded by pool.mu

	// mu is held across a dial, so a burst of first calls to a peer opens
	// one connection, not one per caller.
	mu     sync.Mutex
	closed bool     // the pool closed: a call that raced Close must not dial
	c      *muxConn // nil until the first call
}

// conn returns the connection to run one exchange on, dialling when there
// is none or the last one broke.
func (pp *poolPeer) conn(ctx context.Context) (*muxConn, error) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if pp.closed {
		return nil, &NetError{Addr: pp.addr, Op: "dial", Sent: false, Err: errPoolClosed}
	}
	if pp.c == nil || pp.c.broken() {
		c, err := pp.dial(ctx)
		if err != nil {
			return nil, err
		}
		pp.c = c
	}
	return pp.c, nil
}

// dial opens, wraps and preambles one connection and starts its reader.
func (pp *poolPeer) dial(ctx context.Context) (*muxConn, error) {
	if err := ctx.Err(); err != nil {
		return nil, &NetError{Addr: pp.addr, Op: "dial", Sent: false, Err: context.Cause(ctx)}
	}
	o := &pp.pool.o
	timeout := o.Timeout
	if dl, ok := ctx.Deadline(); ok {
		if until := time.Until(dl); until < timeout {
			timeout = until
		}
	}
	if timeout <= 0 {
		return nil, &NetError{Addr: pp.addr, Op: "dial", Sent: false, Err: context.DeadlineExceeded}
	}
	conn, err := o.Dial(pp.addr, timeout)
	if err != nil {
		return nil, &NetError{Addr: pp.addr, Op: "dial", Sent: false, Err: err}
	}
	if o.ConnWrap != nil {
		conn = o.ConnWrap(conn)
	}
	if err := conn.SetWriteDeadline(time.Now().Add(o.Timeout)); err != nil {
		conn.Close()
		return nil, &NetError{Addr: pp.addr, Op: "dial", Sent: false, Err: err}
	}
	if _, err := conn.Write(preamble[:]); err != nil {
		conn.Close()
		return nil, &NetError{Addr: pp.addr, Op: "dial", Sent: false, Err: err}
	}
	c := &muxConn{
		conn:         conn,
		pp:           pp,
		writeTimeout: o.Timeout,
		nextTag:      1,
	}
	pp.pool.readers.Add(1)
	go c.readLoop()
	return c, nil
}

func (pp *poolPeer) close() {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	pp.closed = true
	if pp.c != nil {
		pp.c.fail(errPoolClosed)
	}
}

// muxResult carries one matched response (or the connection's failure)
// to its waiter.
type muxResult struct {
	resp Response
	err  error
}

// exchange is the client's record of one in-flight request: the one-slot
// channel the reader delivers into and the timer that enforces the
// context's deadline. Records are pooled per exchange, not per
// connection — a cluster holds a thousand connections and a handful of
// exchanges. Only a cleanly completed exchange returns its record: once
// a tag is abandoned (timeout, cancel, failed write, dead connection) the
// reader may still deliver into the record, so it is left to the
// collector.
type exchange struct {
	ch    chan muxResult
	timer *time.Timer // stopped whenever the record is pooled; a stopped timer delivers nothing
}

var exchangePool = sync.Pool{
	New: func() interface{} { return &exchange{ch: make(chan muxResult, 1)} },
}

// arm starts the deadline timer, d from now.
func (x *exchange) arm(d time.Duration) {
	if x.timer == nil {
		x.timer = time.NewTimer(d)
	} else {
		x.timer.Reset(d)
	}
}

// expired reports why an exchange under ctx must stop at time now: the
// context's cause once it is done, or DeadlineExceeded once its deadline
// has passed — which a deadline-only context (see Caller) never signals
// through Done.
func expired(ctx context.Context, now time.Time) error {
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	if dl, ok := ctx.Deadline(); ok && !now.Before(dl) {
		return context.DeadlineExceeded
	}
	return nil
}

// muxConn is one multiplexed connection: a single writer lock serializes
// tagged request frames out, one reader goroutine matches response
// frames back to waiting exchanges by tag.
type muxConn struct {
	conn         net.Conn
	pp           *poolPeer // the record the connection was dialled for
	writeTimeout time.Duration

	// wmu serializes frame writes; the write deadline is re-armed under
	// it for every frame.
	wmu sync.Mutex

	mu      sync.Mutex
	nextTag uint64
	pending tagTable
	failed  error // set once: the connection is dead
	strikes int32 // consecutive abandoned waits since the last completion

	hdr [frameHeader]byte // readLoop's frame header
}

// inlineTags is how many in-flight exchanges a connection tracks without
// a map. A node's client paths are sequential walks, so one exchange in
// flight per connection is the common case, and a map per connection
// (created at dial, grown at the first exchange) was ~176 B on each of a
// cluster's thousand connections.
const inlineTags = 2

// tagTable is a connection's in-flight exchanges by tag: inline slots,
// then a map made only while more exchanges than slots are in flight. A
// slot holding no exchange is free, whatever tag a peer's frame names.
type tagTable struct {
	inline [inlineTags]struct {
		tag uint64
		x   *exchange
	}
	more map[uint64]*exchange
}

func (t *tagTable) put(tag uint64, x *exchange) {
	for i := range t.inline {
		if t.inline[i].x == nil {
			t.inline[i].tag, t.inline[i].x = tag, x
			return
		}
	}
	if t.more == nil {
		t.more = make(map[uint64]*exchange)
	}
	t.more[tag] = x
}

// take removes tag's exchange, reporting whether it was registered.
func (t *tagTable) take(tag uint64) (*exchange, bool) {
	for i := range t.inline {
		if x := t.inline[i].x; x != nil && t.inline[i].tag == tag {
			t.inline[i].tag, t.inline[i].x = 0, nil
			return x, true
		}
	}
	x, ok := t.more[tag]
	if ok {
		delete(t.more, tag)
		if len(t.more) == 0 {
			t.more = nil // a burst's map does not outlive it
		}
	}
	return x, ok
}

// each calls fn on every registered exchange.
func (t *tagTable) each(fn func(*exchange)) {
	for i := range t.inline {
		if x := t.inline[i].x; x != nil {
			fn(x)
		}
	}
	for _, x := range t.more {
		fn(x)
	}
}

func (c *muxConn) broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed != nil
}

// roundTrip runs one pipelined exchange: encode (no lock), register a
// tag, write the frame (write lock only around the deadline re-arm and
// the write), then wait for the reader to deliver the matching response,
// for ctx to cancel or for ctx's deadline to pass — either of the last
// two abandons the tag without harming the connection's other exchanges.
// The deadline is enforced here, on the exchange's own timer, whether or
// not ctx would signal it through Done (see Caller).
func (c *muxConn) roundTrip(ctx context.Context, addr string, req Request) (Response, error) {
	x := exchangePool.Get().(*exchange)
	pb := getFrameBuf()
	buf := append((*pb)[:0], frameHole[:]...)
	buf, encErr := Binary{}.AppendRequest(buf, &req)
	if encErr != nil {
		*pb = buf
		putFrameBuf(pb)
		return Response{}, &NetError{Addr: addr, Op: "send", Sent: false, Err: encErr}
	}

	c.mu.Lock()
	if c.failed != nil {
		err := c.failed
		c.mu.Unlock()
		*pb = buf
		putFrameBuf(pb)
		return Response{}, &NetError{Addr: addr, Op: "send", Sent: false, Err: err}
	}
	tag := c.nextTag
	c.nextTag++
	c.pending.put(tag, x)
	c.mu.Unlock()
	putFrameHeader(buf, tag)

	c.wmu.Lock()
	// The wait for the write lock can outlive the exchange's deadline
	// (one slow writer queues every other exchange behind it). Re-check
	// before writing: an expired exchange releases its tag slot here and
	// sends nothing, instead of shipping a frame whose response nobody
	// will claim.
	now := time.Now()
	if err := expired(ctx, now); err != nil {
		c.wmu.Unlock()
		*pb = buf
		putFrameBuf(pb)
		c.forget(tag, false)
		return Response{}, &NetError{Addr: addr, Op: "send", Sent: false, Err: err}
	}
	err := c.conn.SetWriteDeadline(now.Add(c.writeTimeout))
	var n int
	if err == nil {
		n, err = c.conn.Write(buf)
	}
	c.wmu.Unlock()
	*pb = buf
	putFrameBuf(pb)
	if err != nil {
		c.forget(tag, false)
		c.fail(err)
		return Response{}, &NetError{Addr: addr, Op: "send", Sent: n > 0, Err: err}
	}

	var timeout <-chan time.Time
	deadline, bounded := ctx.Deadline()
	if bounded {
		x.arm(time.Until(deadline))
		timeout = x.timer.C
	}
	var cause error
	select {
	case r := <-x.ch:
		if bounded {
			x.timer.Stop()
		}
		if r.err != nil {
			return Response{}, r.err
		}
		exchangePool.Put(x)
		if !r.resp.OK {
			return r.resp, &RemoteError{Type: req.Type, Msg: r.resp.Err}
		}
		return r.resp, nil
	case <-ctx.Done():
		if bounded {
			x.timer.Stop()
		}
		cause = context.Cause(ctx)
	case <-timeout:
		cause = context.DeadlineExceeded
	}
	if c.forget(tag, true) {
		c.fail(fmt.Errorf("wire: connection wedged (%d consecutive exchange timeouts)", wedgeStrikes))
	}
	return Response{}, &NetError{Addr: addr, Op: "call", Sent: true, Err: cause}
}

// forget abandons a registered tag (cancelled wait or failed write). With
// strike set it counts toward the wedge detector and reports whether the
// connection should be torn down.
func (c *muxConn) forget(tag uint64, strike bool) (wedged bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.pending.take(tag); !ok {
		return false // the reader beat us to it
	}
	if strike {
		c.strikes++
		return c.strikes >= wedgeStrikes && c.failed == nil
	}
	return false
}

// fail marks the connection dead exactly once, failing every pending
// exchange and closing the conn. Later roundTrips see failed and bounce.
func (c *muxConn) fail(cause error) {
	c.mu.Lock()
	if c.failed != nil {
		c.mu.Unlock()
		return
	}
	c.failed = cause
	pending := c.pending
	c.pending = tagTable{}
	c.mu.Unlock()
	c.conn.Close()
	pending.each(func(x *exchange) {
		x.ch <- muxResult{err: &NetError{Addr: c.pp.addr, Op: "recv", Sent: true, Err: cause}}
	})
}

// readLoop is the connection's single reader: it decodes response frames
// and delivers each to the exchange that registered its tag. Any read or
// decode error kills the connection (and with it, all in-flight
// exchanges).
func (c *muxConn) readLoop() {
	for {
		pb, payload, tag, err := readFrame(c.conn, &c.hdr)
		if err != nil {
			c.exit(err)
			return
		}
		resp, derr := Binary{}.DecodeResponse(payload)
		putFrameBuf(pb)
		if derr != nil {
			c.exit(fmt.Errorf("wire: decoding response frame: %w", derr))
			return
		}
		c.mu.Lock()
		x, ok := c.pending.take(tag)
		if ok {
			c.strikes = 0
		}
		c.mu.Unlock()
		if ok {
			x.ch <- muxResult{resp: resp}
		}
		// An unknown tag is an abandoned exchange: the response is
		// discarded, the connection stays healthy.
	}
}

// exit ends the reader: it fails the connection, deletes the record the
// connection was dialled for unless a call holds it or it has a newer
// live connection, and reports the reader gone.
func (c *muxConn) exit(cause error) {
	c.fail(cause)
	p := c.pp.pool
	p.mu.Lock()
	p.pruneLocked(c.pp)
	p.mu.Unlock()
	p.readers.Done()
}
