package wire

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// echoServe answers every request on ln with an OK response carrying the
// request's Name back in Err (abusing the field as a payload for the test).
func echoServe(t *testing.T, ln net.Listener, wg *sync.WaitGroup) {
	t.Helper()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				_ = ServeConn(c, func(req Request) Response {
					return Response{OK: true, Err: req.Name}
				}, ServeOptions{})
			}(conn)
		}
	}()
}

// callVia performs one exchange over a fresh pool on dial, bounded by
// timeout.
func callVia(dial DialFunc, addr string, req Request, timeout time.Duration) (Response, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	p := NewPool(PoolOptions{Dial: dial})
	defer p.Close()
	return p.Call(ctx, addr, req)
}

func TestMemNetCall(t *testing.T) {
	mn := NewMemNet()
	ln, err := mn.Listen("n0")
	if err != nil {
		t.Fatal(err)
	}
	if got := ln.Addr().String(); got != "n0" {
		t.Fatalf("Addr = %q, want n0", got)
	}
	var wg sync.WaitGroup
	echoServe(t, ln, &wg)

	resp, err := callVia(mn.Dial, "n0", Request{Type: TPing, Name: "hello"}, time.Second)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if resp.Err != "hello" {
		t.Fatalf("echoed %q, want hello", resp.Err)
	}

	ln.Close()
	wg.Wait()
	if _, err := callVia(mn.Dial, "n0", Request{Type: TPing}, time.Second); err == nil {
		t.Fatal("dial to closed listener succeeded")
	} else if !errors.Is(err, ErrConnRefused) {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestMemNetDialUnknownFailsFast(t *testing.T) {
	mn := NewMemNet()
	start := time.Now()
	_, err := mn.Dial("ghost", 5*time.Second)
	if err == nil {
		t.Fatal("dial to unregistered name succeeded")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("dial to dead peer took %v, want immediate failure", elapsed)
	}
}

func TestMemNetDuplicateName(t *testing.T) {
	mn := NewMemNet()
	if _, err := mn.Listen("n0"); err != nil {
		t.Fatal(err)
	}
	if _, err := mn.Listen("n0"); err == nil {
		t.Fatal("duplicate Listen succeeded")
	}
	if _, err := mn.Listen(""); err == nil {
		t.Fatal("empty-name Listen succeeded")
	}
}

func TestMemNetIsolation(t *testing.T) {
	a, b := NewMemNet(), NewMemNet()
	if _, err := a.Listen("n0"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Dial("n0", time.Second); err == nil {
		t.Fatal("listener leaked across MemNet instances")
	}
}

func TestMemNetReleaseNameAfterClose(t *testing.T) {
	mn := NewMemNet()
	ln, err := mn.Listen("n0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	ln.Close() // idempotent
	if _, err := mn.Listen("n0"); err != nil {
		t.Fatalf("name not released after close: %v", err)
	}
}
