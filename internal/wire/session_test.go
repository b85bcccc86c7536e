package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lint/leakcheck"
)

// serveOne accepts one connection on a fresh MemNet listener and runs
// ServeConn on it, reporting the session's result and counting handler
// invocations.
func serveOne(t *testing.T, mn *MemNet, o ServeOptions) (result <-chan error, handled *atomic.Int32) {
	t.Helper()
	ln, err := mn.Listen("peer")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	done := make(chan error, 1)
	handled = new(atomic.Int32)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		done <- ServeConn(conn, func(Request) Response {
			handled.Add(1)
			return Response{OK: true}
		}, o)
	}()
	return done, handled
}

// TestServeConnBoundsPreambleWait pins that a peer which connects and
// never sends its preamble is dropped after the write timeout, not kept
// for the idle timeout an established session is allowed.
func TestServeConnBoundsPreambleWait(t *testing.T) {
	leakcheck.Watchdog(t, 30*time.Second)
	mn := NewMemNet()
	result, handled := serveOne(t, mn, ServeOptions{WriteTimeout: 50 * time.Millisecond})
	conn, err := mn.Dial("peer", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	select {
	case err := <-result:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("silent peer: ServeConn = %v, want a deadline error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("silent peer still held after 10s: the preamble wait is bounded by the idle timeout")
	}
	if n := handled.Load(); n != 0 {
		t.Errorf("handler ran %d times for a peer that sent nothing", n)
	}
}

// TestServeConnEndsOnFailedWrite pins that a response write that fails
// ends the session. On TCP a write that times out part-way leaves half a
// frame on the stream, and every frame after it would be misread. A client
// that sends one request and never reads has its session end once the
// write timeout fires, not after the idle timeout.
func TestServeConnEndsOnFailedWrite(t *testing.T) {
	leakcheck.Watchdog(t, 30*time.Second)
	mn := NewMemNet()
	result, handled := serveOne(t, mn, ServeOptions{WriteTimeout: 100 * time.Millisecond})
	conn, err := mn.Dial("peer", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame := append(append([]byte(nil), preamble[:]...), frameHole[:]...)
	if frame, err = (Binary{}).AppendRequest(frame, &Request{Type: TPing}); err != nil {
		t.Fatal(err)
	}
	putFrameHeader(frame[preambleLen:], 1)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-result:
		if err == nil {
			t.Error("ServeConn = nil after its response write failed, want the write's error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("session still open 5s after its response write failed")
	}
	if n := handled.Load(); n != 1 {
		t.Errorf("handler ran %d times, want 1", n)
	}
}

// goroutineID is the running goroutine's number, as its stack trace
// names it ("goroutine 42 [running]:").
func goroutineID() string {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	return strings.Fields(string(buf[:n]))[1]
}

// TestServeFloodBounded pins what answering on the reader buys: however
// many requests one client has in flight on a session, the server runs
// one handler at a time, always on the same goroutine — the session's
// reader — so a flood is held back by the transport instead of growing
// goroutines or a queue, and every caller still gets its own answer.
func TestServeFloodBounded(t *testing.T) {
	leakcheck.Watchdog(t, 2*time.Minute)
	mn := NewMemNet()
	var inFlight, peak atomic.Int32
	var mu sync.Mutex
	runners := map[string]int{} // goroutine -> requests it answered
	accepts := servePool(t, mn, "peer", func(req Request) Response {
		if n := inFlight.Add(1); n > peak.Load() {
			peak.Store(n) // a race only when the bound is already broken
		}
		mu.Lock()
		runners[goroutineID()]++
		mu.Unlock()
		inFlight.Add(-1)
		return Response{OK: true, Err: req.Name}
	})
	p := NewPool(PoolOptions{Dial: mn.Dial})
	defer p.Close()

	start := make(chan struct{})
	errs := make(chan error, floodCallers)
	for i := 0; i < floodCallers; i++ {
		name := strconv.Itoa(i)
		go func() {
			<-start
			resp, err := poolCall(p, "peer", Request{Type: TStoreGet, Name: name}, time.Minute)
			if err == nil && resp.Err != name {
				err = fmt.Errorf("call %s answered with %q", name, resp.Err)
			}
			errs <- err
		}()
	}
	close(start)
	for i := 0; i < floodCallers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := atomic.LoadInt32(accepts); n != 1 {
		t.Errorf("%d calls opened %d connections, want 1", floodCallers, n)
	}
	if n := peak.Load(); n != 1 {
		t.Errorf("%d handlers ran at once on one session, want 1", n)
	}
	if len(runners) != 1 {
		t.Errorf("%d calls were answered on %d goroutines, want 1 (the session's reader)", floodCallers, len(runners))
	}
}

// formatConn rewrites the envelope-format byte of the preamble, which
// every client writes at the head of its first write.
type formatConn struct {
	net.Conn
	format  byte
	patched bool
}

func (c *formatConn) Write(p []byte) (int, error) {
	if !c.patched && len(p) >= preambleLen {
		c.patched = true
		p = append([]byte(nil), p...)
		p[4] = c.format
	}
	return c.Conn.Write(p)
}

// TestServeConnRefusesOtherEnvelopeFormats pins the preamble's format
// byte: 1 (the retired gob encoding) and any value never assigned refuse
// the session with an error naming the byte, the connection closes, and
// the client gets a typed transport failure instead of a hang.
func TestServeConnRefusesOtherEnvelopeFormats(t *testing.T) {
	leakcheck.Watchdog(t, 30*time.Second)
	for _, format := range []byte{1, 3} {
		t.Run(fmt.Sprintf("format=%d", format), func(t *testing.T) {
			mn := NewMemNet()
			result, handled := serveOne(t, mn, ServeOptions{})
			dial := func(addr string, timeout time.Duration) (net.Conn, error) {
				conn, err := mn.Dial(addr, timeout)
				if err != nil {
					return nil, err
				}
				return &formatConn{Conn: conn, format: format}, nil
			}
			_, err := callVia(dial, "peer", Request{Type: TPing}, 5*time.Second)
			var ne *NetError
			if !errors.As(err, &ne) {
				t.Fatalf("client error = %v, want *NetError", err)
			}
			if errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("client waited out its deadline instead of seeing the refusal: %v", err)
			}
			if serr := <-result; !errors.Is(serr, errEnvelopeFormat) {
				t.Errorf("ServeConn = %v, want the envelope-format refusal", serr)
			}
			if n := handled.Load(); n != 0 {
				t.Errorf("handler ran %d times on a refused session", n)
			}
		})
	}
}

// deadlineFailConn is a connection whose write deadline cannot be set.
type deadlineFailConn struct{ net.Conn }

func (deadlineFailConn) SetWriteDeadline(time.Time) error {
	return errors.New("deadline not supported")
}

// TestCallViaTypesSetDeadlineFailure pins the client's error contract on
// its least likely branch — the pool dial, the one place a client arms a
// deadline before its first write (the name dates from the one-shot
// client that carried the same contract): a connection that refuses its
// deadline is a transport failure before anything was sent, so even a
// non-idempotent request may be retried.
func TestCallViaTypesSetDeadlineFailure(t *testing.T) {
	dial := func(string, time.Duration) (net.Conn, error) {
		client, server := net.Pipe()
		t.Cleanup(func() { server.Close() })
		return deadlineFailConn{client}, nil
	}
	_, err := callVia(dial, "peer", Request{Type: TNotify, Layer: 1}, time.Second)
	var ne *NetError
	if !errors.As(err, &ne) {
		t.Fatalf("Call = %v, want *NetError", err)
	}
	if ne.Sent {
		t.Errorf("Sent = true for a failure before the first write")
	}
	if !Retryable(TNotify, err) {
		t.Errorf("a non-idempotent request that never left must be retryable: %v", err)
	}
}
