package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"repro/internal/lint/leakcheck"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// servePool runs a ServeConn accept loop on a fresh MemNet listener,
// counting accepted connections.
func servePool(t *testing.T, mn *MemNet, name string, h Handler) *int32 {
	t.Helper()
	ln, err := mn.Listen(name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepts := new(int32)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			atomic.AddInt32(accepts, 1)
			go func() { _ = ServeConn(conn, h, ServeOptions{}) }()
		}
	}()
	return accepts
}

// serveEachConcurrently is servePool for a server that answers every
// request on a goroutine of its own, so responses leave in completion
// order. Serve answers in arrival order, but the Pool must hold its
// contract against any peer; the tests whose handlers block on purpose,
// to keep exchanges in flight on one connection, run against this one.
func serveEachConcurrently(t *testing.T, mn *MemNet, name string, h Handler) *int32 {
	t.Helper()
	ln, err := mn.Listen(name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepts := new(int32)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			atomic.AddInt32(accepts, 1)
			go serveConcurrently(conn, h)
		}
	}()
	return accepts
}

func serveConcurrently(conn net.Conn, h Handler) {
	defer conn.Close()
	if readPreamble(conn) != nil {
		return
	}
	var wmu sync.Mutex
	hdr := new([frameHeader]byte)
	for {
		pb, payload, tag, err := readFrame(conn, hdr)
		if err != nil {
			return
		}
		req, err := Binary{}.DecodeRequest(payload)
		putFrameBuf(pb)
		if err != nil {
			return
		}
		go func() {
			resp := h(req)
			wmu.Lock()
			defer wmu.Unlock()
			_ = writeFrame(conn, tag, &resp, DefaultTimeout)
		}()
	}
}

func poolCall(p *Pool, addr string, req Request, timeout time.Duration) (Response, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return p.Call(ctx, addr, req)
}

// TestPoolReusesConnections pins the tentpole property: sequential calls
// to one peer share a single pooled connection instead of dialing each.
func TestPoolReusesConnections(t *testing.T) {
	mn := NewMemNet()
	accepts := servePool(t, mn, "peer", func(req Request) Response {
		return Response{OK: true, Err: req.Name}
	})
	p := NewPool(PoolOptions{Dial: mn.Dial})
	defer p.Close()
	for i := 0; i < 20; i++ {
		resp, err := poolCall(p, "peer", Request{Type: TPing, Name: "x"}, 2*time.Second)
		if err != nil || resp.Err != "x" {
			t.Fatalf("call %d: %v (%+v)", i, err, resp)
		}
	}
	if n := atomic.LoadInt32(accepts); n != 1 {
		t.Errorf("20 pooled calls opened %d connections, want 1", n)
	}
}

// TestFrameBufPoolDropsLarge: a frame far larger than the usual few
// hundred bytes does not leave its buffer in frameBufPool, where it would
// stay pinned behind every later frame. After an exchange carrying 1 MiB
// each way, every buffer the pool hands out is within maxPooledFrameBuf.
func TestFrameBufPoolDropsLarge(t *testing.T) {
	big := bytes.Repeat([]byte{'v'}, 1<<20)
	mn := NewMemNet()
	ln, err := mn.Listen("peer")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		conn, aerr := ln.Accept()
		if aerr != nil {
			served <- aerr
			return
		}
		served <- ServeConn(conn, func(req Request) Response { return Response{OK: true, Value: req.Items[0].Value} }, ServeOptions{})
	}()
	p := NewPool(PoolOptions{Dial: mn.Dial})
	resp, err := poolCall(p, "peer", Request{Type: TStorePut, Items: []StoreItem{{Key: "k", Value: big}}}, time.Minute)
	if err != nil || !bytes.Equal(resp.Value, big) {
		t.Fatalf("1 MiB echo: %d bytes back, %v", len(resp.Value), err)
	}
	// Closing both ends is what returns every buffer the exchange used.
	p.Close()
	if err := <-served; err != nil {
		t.Fatalf("session: %v", err)
	}
	for i := 0; i < 64; i++ {
		if c := cap(*getFrameBuf()); c > maxPooledFrameBuf {
			t.Fatalf("frameBufPool handed out a %d B buffer, limit %d", c, maxPooledFrameBuf)
		}
	}
}

// TestPoolPipelinesOutOfOrder pins multiplexing: on ONE connection, a
// fast exchange issued after a slow one completes first, and each caller
// still receives its own matched response.
func TestPoolPipelinesOutOfOrder(t *testing.T) {
	leakcheck.Watchdog(t, 30*time.Second)
	mn := NewMemNet()
	release := make(chan struct{})
	accepts := serveEachConcurrently(t, mn, "peer", func(req Request) Response {
		if req.Name == "slow" {
			<-release
		}
		return Response{OK: true, Err: req.Name}
	})
	p := NewPool(PoolOptions{Dial: mn.Dial})
	defer p.Close()

	slowDone := make(chan Response, 1)
	go func() {
		resp, err := poolCall(p, "peer", Request{Type: TStoreGet, Name: "slow"}, 5*time.Second)
		if err != nil {
			t.Errorf("slow call: %v", err)
		}
		slowDone <- resp
	}()
	// Wait until the slow request is in flight on the pooled connection.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if p.load("peer") >= 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	fast, err := poolCall(p, "peer", Request{Type: TStoreGet, Name: "fast"}, 2*time.Second)
	if err != nil {
		t.Fatalf("fast call blocked behind the slow exchange: %v", err)
	}
	if fast.Err != "fast" {
		t.Fatalf("fast call got the wrong response: %+v", fast)
	}
	select {
	case <-slowDone:
		t.Fatal("slow exchange completed before it was released")
	default:
	}
	close(release)
	select {
	case resp := <-slowDone:
		if resp.Err != "slow" {
			t.Fatalf("slow call got the wrong response: %+v", resp)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("slow exchange never completed after release")
	}
	if n := atomic.LoadInt32(accepts); n != 1 {
		t.Errorf("pipelined exchanges used %d connections, want 1", n)
	}
}

// load reports the in-flight exchanges to addr (test helper).
func (p *Pool) load(addr string) int {
	p.mu.Lock()
	pp := p.peers[addr]
	p.mu.Unlock()
	if pp == nil {
		return 0
	}
	return pp.load()
}

// load reports a peer's in-flight exchanges (test helper).
func (pp *poolPeer) load() int {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if pp.c == nil {
		return 0
	}
	return pp.c.load()
}

// load reports the tags registered on the connection (test helper).
func (c *muxConn) load() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	c.pending.each(func(*exchange) { n++ })
	return n
}

// TestPoolCancelAbandonsOneExchange pins per-exchange cancellation: a
// canceled call fails with its context cause while the connection and
// its other in-flight exchanges keep working.
func TestPoolCancelAbandonsOneExchange(t *testing.T) {
	leakcheck.Watchdog(t, 30*time.Second)
	mn := NewMemNet()
	release := make(chan struct{})
	serveEachConcurrently(t, mn, "peer", func(req Request) Response {
		if req.Name == "stuck" {
			<-release
		}
		return Response{OK: true, Err: req.Name}
	})
	defer close(release)
	p := NewPool(PoolOptions{Dial: mn.Dial})
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	stuckErr := make(chan error, 1)
	go func() {
		_, err := p.Call(ctx, "peer", Request{Type: TStoreGet, Name: "stuck"})
		stuckErr <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-stuckErr:
		var ne *NetError
		if !errors.As(err, &ne) || !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled exchange error = %v, want NetError wrapping context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation did not abort the exchange")
	}
	// The connection must still serve other exchanges.
	resp, err := poolCall(p, "peer", Request{Type: TPing, Name: "after"}, 2*time.Second)
	if err != nil || resp.Err != "after" {
		t.Fatalf("exchange after cancellation: %v (%+v)", err, resp)
	}
}

// TestPoolBrokenConnFailsAllInflight pins failure fan-out: when the peer
// kills the connection, every in-flight exchange fails with a NetError,
// and the next call transparently redials.
func TestPoolBrokenConnFailsAllInflight(t *testing.T) {
	leakcheck.Watchdog(t, 30*time.Second)
	mn := NewMemNet()
	ln, err := mn.Listen("peer")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var killed atomic.Bool
	kill := make(chan net.Conn, 1)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if killed.CompareAndSwap(false, true) {
				// First connection: drain the preamble and request frames
				// (MemNet pipes are synchronous, so the client's writes
				// need a reader) but never respond; die on command.
				go func() { _, _ = io.Copy(io.Discard, conn) }()
				kill <- conn
				continue
			}
			go func() { _ = ServeConn(conn, func(req Request) Response { return Response{OK: true} }, ServeOptions{}) }()
		}
	}()

	p := NewPool(PoolOptions{Dial: mn.Dial})
	defer p.Close()
	const inflight = 4
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func() {
			_, err := poolCall(p, "peer", Request{Type: TStoreGet, Name: "doomed"}, 5*time.Second)
			errs <- err
		}()
	}
	victim := <-kill
	// Give the calls a moment to register their tags, then cut the wire.
	time.Sleep(50 * time.Millisecond)
	victim.Close()
	for i := 0; i < inflight; i++ {
		select {
		case err := <-errs:
			var ne *NetError
			if !errors.As(err, &ne) {
				t.Errorf("in-flight exchange %d: %v, want NetError", i, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("in-flight exchange not failed by the dead connection")
		}
	}
	if resp, err := poolCall(p, "peer", Request{Type: TPing}, 2*time.Second); err != nil || !resp.OK {
		t.Fatalf("redial after broken connection: %v (%+v)", err, resp)
	}
}

// TestPoolWedgedConnStrikeLimit pins the wedge detector: a connection
// whose peer accepts frames but never answers is declared wedged after
// wedgeStrikes consecutive exchange timeouts and torn down — failing
// its remaining in-flight exchanges promptly instead of letting each
// ride out its own deadline — and the next call dials a replacement.
func TestPoolWedgedConnStrikeLimit(t *testing.T) {
	leakcheck.Watchdog(t, 30*time.Second)
	mn := NewMemNet()
	ln, err := mn.Listen("peer")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var wedgedConn atomic.Bool
	accepts := new(int32)
	go func() {
		for {
			conn, acceptErr := ln.Accept()
			if acceptErr != nil {
				return
			}
			atomic.AddInt32(accepts, 1)
			if wedgedConn.CompareAndSwap(false, true) {
				// First connection: drain the preamble and request frames
				// (MemNet pipes are synchronous, so the client's writes
				// need a reader) but never respond — a wedged peer, not a
				// dead one.
				go func() { _, _ = io.Copy(io.Discard, conn) }()
				continue
			}
			go func() { _ = ServeConn(conn, func(req Request) Response { return Response{OK: true} }, ServeOptions{}) }()
		}
	}()

	p := NewPool(PoolOptions{Dial: mn.Dial})
	defer p.Close()

	// A patient exchange rides the wedged connection. Its own deadline is
	// far out; only the wedge teardown can fail it quickly.
	bystander := make(chan error, 1)
	go func() {
		_, callErr := poolCall(p, "peer", Request{Type: TStoreGet, Name: "bystander"}, time.Minute)
		bystander <- callErr
	}()
	deadline := time.Now().Add(2 * time.Second)
	for p.load("peer") < 1 && !time.Now().After(deadline) {
		time.Sleep(time.Millisecond)
	}

	// Each timed-out exchange with no intervening completion is one
	// strike; the limit kills the connection.
	for i := 0; i < wedgeStrikes; i++ {
		_, strikeErr := poolCall(p, "peer", Request{Type: TStoreGet, Name: "strike"}, 25*time.Millisecond)
		if !errors.Is(strikeErr, context.DeadlineExceeded) {
			t.Fatalf("strike %d: %v, want deadline exceeded", i, strikeErr)
		}
	}

	// Teardown fans the wedge failure out to the patient exchange well
	// before its minute-long deadline.
	select {
	case bystanderErr := <-bystander:
		var ne *NetError
		if !errors.As(bystanderErr, &ne) {
			t.Fatalf("bystander on wedged connection: %v, want NetError", bystanderErr)
		}
		if errors.Is(bystanderErr, context.DeadlineExceeded) {
			t.Fatalf("bystander hit its own deadline instead of the wedge teardown: %v", bystanderErr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wedge teardown did not fail the in-flight exchange")
	}

	// The struck-out connection is replaced: the next call dials fresh
	// and succeeds.
	resp, err := poolCall(p, "peer", Request{Type: TPing}, 2*time.Second)
	if err != nil || !resp.OK {
		t.Fatalf("call after wedge teardown: %v (%+v)", err, resp)
	}
	if n := atomic.LoadInt32(accepts); n != 2 {
		t.Errorf("wedge recovery used %d connections, want 2 (wedged + replacement)", n)
	}
}

// TestPoolTimedOutExchangeFreesTagSlot pins the slot-release contract:
// the moment a waiter gives up on its context, its tag leaves the
// connection's pending table, so a late response is discarded instead of
// delivered into a record nobody waits on, and the table holds only
// exchanges somebody is waiting for.
func TestPoolTimedOutExchangeFreesTagSlot(t *testing.T) {
	leakcheck.Watchdog(t, 30*time.Second)
	mn := NewMemNet()
	release := make(chan struct{})
	servePool(t, mn, "peer", func(req Request) Response {
		if req.Name == "stuck" {
			<-release
		}
		return Response{OK: true}
	})
	defer close(release)
	p := NewPool(PoolOptions{Dial: mn.Dial})
	defer p.Close()

	if _, err := poolCall(p, "peer", Request{Type: TPing}, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	conn := func() *muxConn {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.peers["peer"].c
	}()

	if _, err := poolCall(p, "peer", Request{Type: TStoreGet, Name: "stuck"}, 50*time.Millisecond); err == nil {
		t.Fatal("exchange against a stuck handler should time out")
	}
	// No grace, no sleep: the timed-out waiter already released its slot.
	if got := conn.load(); got != 0 {
		t.Fatalf("load = %d right after the timeout, want 0 (tag slot must be released immediately)", got)
	}
}

// TestPoolExpiredContextSendsNothing pins the write-path half: an
// exchange whose deadline lapsed while queued behind the write lock
// releases its tag and reports Sent=false instead of shipping a frame
// whose response nobody will claim.
func TestPoolExpiredContextSendsNothing(t *testing.T) {
	leakcheck.Watchdog(t, 30*time.Second)
	mn := NewMemNet()
	var served atomic.Int32
	servePool(t, mn, "peer", func(req Request) Response {
		served.Add(1)
		return Response{OK: true}
	})
	p := NewPool(PoolOptions{Dial: mn.Dial})
	defer p.Close()

	if _, err := poolCall(p, "peer", Request{Type: TPing}, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	warm := served.Load()
	conn := func() *muxConn {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.peers["peer"].c
	}()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired before the frame write can happen
	_, err := conn.roundTrip(ctx, "peer", Request{Type: TPing})
	var ne *NetError
	if !errors.As(err, &ne) || ne.Sent {
		t.Fatalf("roundTrip with expired ctx: err = %v, want NetError with Sent=false", err)
	}
	if got := conn.load(); got != 0 {
		t.Fatalf("load = %d after expired-ctx roundTrip, want 0", got)
	}
	time.Sleep(50 * time.Millisecond)
	if got := served.Load(); got != warm {
		t.Fatalf("server handled %d frame(s) from an expired exchange, want none", got-warm)
	}
}

// TestPoolAttemptDeadlineTimesOutLikeCtx pins the Caller deadline
// contract at the one place that blocks: under a Retrier the attempt's
// bound arrives as a deadline with no Done channel behind it (the parent
// context here has neither), and the pool must still time the exchange
// out with the same error, free its tag slot at once and count a wedge
// strike — exactly what a context timeout does.
func TestPoolAttemptDeadlineTimesOutLikeCtx(t *testing.T) {
	leakcheck.Watchdog(t, 30*time.Second)
	mn := NewMemNet()
	release := make(chan struct{})
	serveEachConcurrently(t, mn, "peer", func(req Request) Response {
		if req.Name == "stuck" {
			<-release
		}
		return Response{OK: true}
	})
	defer close(release)
	p := NewPool(PoolOptions{Dial: mn.Dial})
	defer p.Close()
	r := NewRetrier(p, RetryPolicy{MaxAttempts: 1, PerAttempt: 25 * time.Millisecond}, BreakerPolicy{Threshold: -1}, nil)

	if _, err := r.Call(context.Background(), "peer", Request{Type: TPing}); err != nil {
		t.Fatal(err)
	}
	conn := func() *muxConn {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.peers["peer"].c
	}()
	strikes := func() int {
		conn.mu.Lock()
		defer conn.mu.Unlock()
		return int(conn.strikes)
	}

	for i := 1; i <= wedgeStrikes; i++ {
		start := time.Now()
		_, err := r.Call(context.Background(), "peer", Request{Type: TStoreGet, Name: "stuck"})
		var ne *NetError
		if !errors.As(err, &ne) || ne.Op != "call" || !ne.Sent || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("attempt %d: err = %v, want a sent \"call\" NetError wrapping context.DeadlineExceeded", i, err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("attempt %d took %v: the attempt deadline was not enforced", i, elapsed)
		}
		if got := conn.load(); got != 0 {
			t.Fatalf("load = %d right after attempt %d timed out, want 0", got, i)
		}
		if got := strikes(); got != i {
			t.Fatalf("strikes = %d after %d attempt timeouts", got, i)
		}
	}
	if !conn.broken() {
		t.Fatalf("%d attempt timeouts in a row did not tear the connection down", wedgeStrikes)
	}
}

// TestPoolOneConnectionPerPeer pins the connection policy: however many
// exchanges are in flight to a peer, they share one connection. A first
// call opens it; the handler then answers nobody until all 64 requests
// have arrived, so all 64 are in flight on it at once, and each caller
// still gets its own answer.
func TestPoolOneConnectionPerPeer(t *testing.T) {
	leakcheck.Watchdog(t, 30*time.Second)
	const callers = 64
	mn := NewMemNet()
	var arrived atomic.Int32
	all := make(chan struct{})
	accepts := serveEachConcurrently(t, mn, "peer", func(req Request) Response {
		if req.Type == TPing {
			return Response{OK: true}
		}
		if arrived.Add(1) == callers {
			close(all)
		}
		<-all
		return Response{OK: true, Err: req.Name}
	})
	p := NewPool(PoolOptions{Dial: mn.Dial})
	defer p.Close()
	if _, err := poolCall(p, "peer", Request{Type: TPing}, 2*time.Second); err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		name := fmt.Sprintf("call-%d", i)
		go func() {
			resp, err := poolCall(p, "peer", Request{Type: TStoreGet, Name: name}, 10*time.Second)
			if err == nil && resp.Err != name {
				err = fmt.Errorf("%s answered with %q", name, resp.Err)
			}
			errs <- err
		}()
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if n := atomic.LoadInt32(accepts); n != 1 {
		t.Errorf("%d concurrent exchanges opened %d connections, want 1", callers, n)
	}
}

// TestPoolDiscardsUnknownTags: a response frame whose tag no exchange
// registered — 0, which the pool never issues, or one far ahead — is
// dropped, whatever the in-flight table's free slots hold, and the
// connection keeps serving.
func TestPoolDiscardsUnknownTags(t *testing.T) {
	leakcheck.Watchdog(t, 30*time.Second)
	mn := NewMemNet()
	ln, err := mn.Listen("peer")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepts atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			go func() {
				defer conn.Close()
				if readPreamble(conn) != nil {
					return
				}
				hdr := new([frameHeader]byte)
				for {
					pb, _, tag, err := readFrame(conn, hdr)
					if err != nil {
						return
					}
					putFrameBuf(pb)
					for _, stray := range []uint64{0, tag + 1<<40} {
						_ = writeFrame(conn, stray, &Response{OK: true, Err: "stray"}, DefaultTimeout)
					}
					_ = writeFrame(conn, tag, &Response{OK: true, Err: "mine"}, DefaultTimeout)
				}
			}()
		}
	}()
	p := NewPool(PoolOptions{Dial: mn.Dial})
	defer p.Close()
	for i := 0; i < 3; i++ {
		resp, err := poolCall(p, "peer", Request{Type: TPing}, 2*time.Second)
		if err != nil || resp.Err != "mine" {
			t.Fatalf("call %d: %+v, %v", i, resp, err)
		}
	}
	if n := accepts.Load(); n != 1 {
		t.Errorf("stray frames cost %d connections, want 1", n)
	}
}

// TestPoolForgetsDeadPeers: the pool keeps a record per peer it can
// reach, not per address it ever called. 64 peers are called, then die
// (listener and served connection closed) and are called once more: a
// connection whose reader exits leaves its record, a record whose dial
// fails is deleted before the call returns, and neither leaves a reader
// goroutine behind.
func TestPoolForgetsDeadPeers(t *testing.T) {
	leakcheck.Watchdog(t, 30*time.Second)
	const peers = 64
	mn := NewMemNet()
	var mu sync.Mutex
	var served []net.Conn
	var lns []net.Listener
	for i := 0; i < peers; i++ {
		ln, err := mn.Listen(fmt.Sprintf("peer-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				mu.Lock()
				served = append(served, conn)
				mu.Unlock()
				go func() { _ = ServeConn(conn, func(Request) Response { return Response{OK: true} }, ServeOptions{}) }()
			}
		}()
	}
	p := NewPool(PoolOptions{Dial: mn.Dial})
	defer p.Close()
	for i := 0; i < peers; i++ {
		if _, err := poolCall(p, fmt.Sprintf("peer-%d", i), Request{Type: TPing}, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	p.mu.Lock()
	if n := len(p.peers); n != peers {
		t.Fatalf("%d live peers called, %d records", peers, n)
	}
	p.mu.Unlock()

	for _, ln := range lns {
		ln.Close()
	}
	mu.Lock()
	for _, conn := range served {
		conn.Close()
	}
	mu.Unlock()
	for i := 0; i < peers; i++ {
		if _, err := poolCall(p, fmt.Sprintf("peer-%d", i), Request{Type: TPing}, 2*time.Second); err == nil {
			t.Fatalf("peer-%d answered after it died", i)
		}
	}
	p.readers.Wait() // every connection's reader has exited
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.peers); n != 0 {
		t.Errorf("%d records left for %d dead peers, want 0", n, peers)
	}
}

// TestPoolCallAfterCloseDoesNotDial pins that Close is final: a call on a
// closed pool fails as a dial that never happened, instead of opening a
// connection (and its reader goroutine) that no Close will ever reach —
// which the package's leak gate would report.
func TestPoolCallAfterCloseDoesNotDial(t *testing.T) {
	mn := NewMemNet()
	accepts := servePool(t, mn, "peer", func(Request) Response { return Response{OK: true} })
	p := NewPool(PoolOptions{Dial: mn.Dial})
	p.Close()
	_, err := poolCall(p, "peer", Request{Type: TPing}, 2*time.Second)
	var ne *NetError
	if !errors.As(err, &ne) || ne.Op != "dial" || ne.Sent || !errors.Is(err, errPoolClosed) {
		t.Fatalf("call on a closed pool = %v, want an unsent dial NetError wrapping errPoolClosed", err)
	}
	if n := atomic.LoadInt32(accepts); n != 0 {
		t.Errorf("call on a closed pool opened %d connection(s)", n)
	}
}
