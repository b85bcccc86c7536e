package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/lint/leakcheck"
)

// connPairs are the two implementations the conformance table runs
// against: MemNet's own connection, and net.Pipe, whose semantics it
// promises to keep.
var connPairs = []struct {
	name string
	pair func() (a, b net.Conn)
}{
	{"memConn", func() (net.Conn, net.Conn) { return newMemConnPair("peer") }},
	{"net.Pipe", net.Pipe},
}

// wantTimeout checks err the way wire's callers and the standard library
// do: by errors.Is and through net.Error.
func wantTimeout(t *testing.T, what string, err error) {
	t.Helper()
	var ne net.Error
	if !errors.Is(err, os.ErrDeadlineExceeded) || !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("%s: err = %v, want a net.Error timeout matching os.ErrDeadlineExceeded", what, err)
	}
}

// within runs f on its own goroutine and fails the test if it has not
// returned when the guard expires: a conformance failure must read as a
// failure, not as a wedged suite.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: still blocked after 5s", what)
	}
}

func TestMemConnConformance(t *testing.T) {
	leakcheck.Watchdog(t, 60*time.Second)
	cases := []struct {
		name string
		run  func(t *testing.T, a, b net.Conn)
	}{
		{"past deadline fails at once", func(t *testing.T, a, b net.Conn) {
			past := time.Now().Add(-time.Second)
			if err := a.SetDeadline(past); err != nil {
				t.Fatal(err)
			}
			within(t, "Read and Write under a past deadline", func() {
				_, err := a.Read(make([]byte, 1))
				wantTimeout(t, "Read", err)
				_, err = a.Write([]byte("x"))
				wantTimeout(t, "Write", err)
			})
		}},
		{"deadline expires during a blocked Read", func(t *testing.T, a, b net.Conn) {
			if err := a.SetReadDeadline(time.Now().Add(30 * time.Millisecond)); err != nil {
				t.Fatal(err)
			}
			within(t, "blocked Read", func() {
				_, err := a.Read(make([]byte, 1))
				wantTimeout(t, "Read", err)
			})
		}},
		{"deadline expires during a blocked Write", func(t *testing.T, a, b net.Conn) {
			if err := a.SetWriteDeadline(time.Now().Add(30 * time.Millisecond)); err != nil {
				t.Fatal(err)
			}
			within(t, "blocked Write", func() {
				n, err := a.Write([]byte("nobody reads this"))
				wantTimeout(t, "Write", err)
				if n != 0 {
					t.Errorf("timed-out Write reported %d bytes taken, want 0", n)
				}
			})
		}},
		{"re-arming after expiry works", func(t *testing.T, a, b net.Conn) {
			if err := a.SetReadDeadline(time.Now().Add(10 * time.Millisecond)); err != nil {
				t.Fatal(err)
			}
			within(t, "first Read", func() {
				_, err := a.Read(make([]byte, 1))
				wantTimeout(t, "first Read", err)
			})
			// Expired stays expired until the deadline is moved...
			_, err := a.Read(make([]byte, 1))
			wantTimeout(t, "Read after expiry", err)
			// ...and a fresh deadline makes the connection usable again, then
			// expires in its turn.
			if err := a.SetReadDeadline(time.Now().Add(time.Minute)); err != nil {
				t.Fatal(err)
			}
			go func() { _, _ = b.Write([]byte("ok")) }()
			got := make([]byte, 2)
			within(t, "Read under the new deadline", func() {
				if _, err := io.ReadFull(a, got); err != nil || string(got) != "ok" {
					t.Errorf("Read after re-arming = %q, %v", got, err)
				}
			})
			if err := a.SetReadDeadline(time.Now().Add(10 * time.Millisecond)); err != nil {
				t.Fatal(err)
			}
			within(t, "second expiry", func() {
				_, err := a.Read(make([]byte, 1))
				wantTimeout(t, "Read under the re-armed deadline", err)
			})
		}},
		{"zero time clears", func(t *testing.T, a, b net.Conn) {
			// A deadline replaced before it fires never fires: the Read
			// below outlives it and completes normally.
			if err := a.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
				t.Fatal(err)
			}
			if err := a.SetReadDeadline(time.Time{}); err != nil {
				t.Fatal(err)
			}
			go func() {
				time.Sleep(60 * time.Millisecond) // past the replaced deadline
				_, _ = b.Write([]byte("late"))
			}()
			got := make([]byte, 4)
			within(t, "Read with the deadline cleared", func() {
				if _, err := io.ReadFull(a, got); err != nil || string(got) != "late" {
					t.Errorf("Read after clearing the deadline = %q, %v", got, err)
				}
			})
			// Clearing also revives a connection whose deadline had expired.
			if err := a.SetReadDeadline(time.Now().Add(-time.Second)); err != nil {
				t.Fatal(err)
			}
			if err := a.SetReadDeadline(time.Time{}); err != nil {
				t.Fatal(err)
			}
			go func() { _, _ = b.Write([]byte("back")) }()
			within(t, "Read after clearing an expired deadline", func() {
				if _, err := io.ReadFull(a, got); err != nil || string(got) != "back" {
					t.Errorf("Read after clearing an expired deadline = %q, %v", got, err)
				}
			})
		}},
		{"Close unblocks both ends", func(t *testing.T, a, b net.Conn) {
			localRead := make(chan error, 1)
			remoteRead := make(chan error, 1)
			go func() { _, err := a.Read(make([]byte, 1)); localRead <- err }()
			go func() { _, err := b.Read(make([]byte, 1)); remoteRead <- err }()
			time.Sleep(20 * time.Millisecond) // let both Reads block
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			within(t, "Reads blocked across Close", func() {
				if err := <-localRead; !errors.Is(err, io.ErrClosedPipe) {
					t.Errorf("Read on the closed end = %v, want io.ErrClosedPipe", err)
				}
				if err := <-remoteRead; !errors.Is(err, io.EOF) {
					t.Errorf("Read on the other end = %v, want io.EOF", err)
				}
			})
			if _, err := a.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
				t.Errorf("Write on the closed end = %v, want io.ErrClosedPipe", err)
			}
			if _, err := b.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
				t.Errorf("Write to a closed peer = %v, want io.ErrClosedPipe", err)
			}
			if err := a.SetDeadline(time.Now().Add(time.Second)); !errors.Is(err, io.ErrClosedPipe) {
				t.Errorf("SetDeadline on the closed end = %v, want io.ErrClosedPipe", err)
			}
			if err := a.Close(); err != nil {
				t.Errorf("second Close = %v, want nil", err)
			}
		}},
		{"Close unblocks a blocked Write", func(t *testing.T, a, b net.Conn) {
			wrote := make(chan error, 1)
			go func() { _, err := a.Write([]byte("nobody reads this")); wrote <- err }()
			time.Sleep(20 * time.Millisecond) // let the Write block
			_ = b.Close()
			within(t, "Write blocked across the peer's Close", func() {
				if err := <-wrote; !errors.Is(err, io.ErrClosedPipe) {
					t.Errorf("Write to a peer that closed = %v, want io.ErrClosedPipe", err)
				}
			})
		}},
		{"a Write returns when its last byte is read", func(t *testing.T, a, b net.Conn) {
			msg := []byte("synchronous and unbuffered")
			wrote := make(chan struct{})
			go func() {
				defer close(wrote)
				if n, err := a.Write(msg); n != len(msg) || err != nil {
					t.Errorf("Write = %d, %v", n, err)
				}
			}()
			got := make([]byte, len(msg))
			if _, err := io.ReadFull(b, got[:5]); err != nil {
				t.Fatal(err)
			}
			select {
			case <-wrote:
				t.Fatal("Write returned with bytes still unread: the connection buffers")
			case <-time.After(20 * time.Millisecond):
			}
			if _, err := io.ReadFull(b, got[5:]); err != nil || !bytes.Equal(got, msg) {
				t.Fatalf("read %q, %v", got, err)
			}
			within(t, "Write after its last byte was read", func() { <-wrote })
		}},
		{"concurrent Writes never interleave", func(t *testing.T, a, b net.Conn) {
			const writers, frames, size = 8, 50, 300
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					frame := bytes.Repeat([]byte{byte('a' + w)}, size)
					for i := 0; i < frames; i++ {
						if _, err := a.Write(frame); err != nil {
							t.Errorf("writer %d: %v", w, err)
							return
						}
					}
				}(w)
			}
			// Read in pieces that do not divide a frame, so a frame spans
			// several Reads and any interleaving shows inside one.
			got := make([]byte, writers*frames*size)
			within(t, "reading every frame", func() {
				for off := 0; off < len(got); {
					end := off + 7
					if end > len(got) {
						end = len(got)
					}
					n, err := b.Read(got[off:end])
					if err != nil {
						t.Errorf("Read: %v", err)
						return
					}
					off += n
				}
			})
			wg.Wait()
			for off := 0; off < len(got); off += size {
				frame := got[off : off+size]
				if !bytes.Equal(frame, bytes.Repeat(frame[:1], size)) {
					t.Fatalf("frame at %d mixes writers: %q", off, frame)
				}
			}
		}},
	}
	for _, impl := range connPairs {
		for _, c := range cases {
			t.Run(impl.name+"/"+c.name, func(t *testing.T) {
				a, b := impl.pair()
				defer a.Close()
				defer b.Close()
				c.run(t, a, b)
			})
		}
	}
}

// TestMemConnStaleExpiryIsIgnored races the window net/pipe.go guards
// with a wait: a deadline replaced just as its timer fires must not
// expire its successor.
func TestMemConnStaleExpiryIsIgnored(t *testing.T) {
	a, b := newMemConnPair("peer")
	defer a.Close()
	defer b.Close()
	for i := 0; i < 200; i++ {
		if err := a.SetReadDeadline(time.Now().Add(50 * time.Microsecond)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(i%4) * 25 * time.Microsecond) // replace the deadline before, around and after it fires
		if err := a.SetReadDeadline(time.Now().Add(time.Minute)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(200 * time.Microsecond) // let a callback already in flight land
		a.rd.mu.Lock()
		expired := a.rd.rdl.expired
		a.rd.mu.Unlock()
		if expired {
			t.Fatalf("round %d: the replaced deadline's timer expired the new deadline", i)
		}
	}
}
