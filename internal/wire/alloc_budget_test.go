//go:build !race

// The garbage budget of one exchange, held as tests: allocation counts
// are exact and machine-independent, so unlike a timing they can gate.
// testing.AllocsPerRun counts the whole process, which is what puts the
// server's share on the books too; under the race detector the counts
// mean nothing, hence the build tag. CI runs these as the alloc-budget
// step (make allocs).

package wire

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestAllocBudgetPoolCall: one find_closest over MemNet, client and
// server together, creates no heap object. The two address strings of the
// decoded response come from the intern table (they were 2 of the 3
// objects spent before it), and the session's reader answers the request
// itself (the closure of a goroutine per request was the third).
func TestAllocBudgetPoolCall(t *testing.T) {
	mn := NewMemNet()
	hop := Peer{Addr: "127.0.0.1:24107", ID: [20]byte{7}}
	servePool(t, mn, "peer", func(Request) Response {
		return Response{OK: true, Next: hop, Self: Peer{Addr: "127.0.0.1:24103", ID: [20]byte{3}}}
	})
	p := NewPool(PoolOptions{Dial: mn.Dial})
	defer p.Close()
	// A deadline, as every call beneath a Retrier carries: arming and
	// clearing the exchange's timer is part of the budget.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	req := Request{Type: TFindClosest, Layer: 2, Key: hop.ID, Hierarchical: true}
	avg := testing.AllocsPerRun(500, func() {
		if resp, err := p.Call(ctx, "peer", req); err != nil || resp.Next.Addr != hop.Addr {
			t.Fatalf("call: %+v, %v", resp, err)
		}
	})
	t.Logf("one find_closest exchange: %.1f heap objects", avg)
	if avg != 0 {
		t.Errorf("one find_closest exchange made %.1f heap objects, budget 0", avg)
	}
}

// TestAllocBudgetMemConnDeadlines: re-arming a deadline is free.
func TestAllocBudgetMemConnDeadlines(t *testing.T) {
	a, b := newMemConnPair("peer")
	defer a.Close()
	defer b.Close()
	avg := testing.AllocsPerRun(500, func() {
		deadline := time.Now().Add(time.Minute)
		if err := a.SetReadDeadline(deadline); err != nil {
			t.Fatal(err)
		}
		if err := a.SetWriteDeadline(deadline); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("Set{Read,Write}Deadline made %.1f heap objects, budget 0", avg)
	}
}

// TestAllocBudgetReadFrame: reading a frame is free, header and pooled
// payload buffer (get and put) included.
func TestAllocBudgetReadFrame(t *testing.T) {
	frame := append([]byte(nil), frameHole[:]...)
	frame, err := Binary{}.AppendResponse(frame, &Response{OK: true, Next: Peer{Addr: "127.0.0.1:24107"}})
	if err != nil {
		t.Fatal(err)
	}
	putFrameHeader(frame, 42)
	src := bytes.NewReader(frame)
	hdr := new([frameHeader]byte)
	avg := testing.AllocsPerRun(500, func() {
		src.Reset(frame)
		pb, payload, tag, rerr := readFrame(src, hdr)
		if rerr != nil || tag != 42 || !bytes.Equal(payload, frame[frameHeader:]) {
			t.Fatalf("readFrame: tag %d, %v", tag, rerr)
		}
		putFrameBuf(pb)
	})
	if avg != 0 {
		t.Errorf("readFrame made %.1f heap objects, budget 0", avg)
	}
}

// TestAllocBudgetIdleConn: a pooled connection parked between frames,
// both ends of it, holds at most 4 KiB of heap and two goroutines (the
// client's reader and the server's session loop). With a 4 KiB
// bufio.Reader and a 512 B frame buffer on each end it held 12.4 KB,
// counted as here with the client Pool it comes from; a reader now holds
// only its 12-byte header and takes a payload buffer from frameBufPool
// per frame (2.8 KB). Stacks are logged, not gated.
func TestAllocBudgetIdleConn(t *testing.T) {
	const conns = 256
	mn := NewMemNet()
	servePool(t, mn, "peer", func(Request) Response { return Response{OK: true} })
	open := func() *Pool {
		p := NewPool(PoolOptions{Dial: mn.Dial})
		if _, err := poolCall(p, "peer", Request{Type: TPing}, time.Minute); err != nil {
			t.Fatal(err)
		}
		return p
	}
	pools := make([]*Pool, 0, conns+1)
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()
	// One connection before the baseline, so the accept loop and the
	// package's pools are warm and the deltas are the connections' own.
	pools = append(pools, open())
	g0 := runtime.NumGoroutine()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for i := 0; i < conns; i++ {
		pools = append(pools, open())
	}
	g1 := runtime.NumGoroutine()
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	heap := float64(int64(ms1.HeapAlloc)-int64(ms0.HeapAlloc)) / conns
	goroutines := float64(g1-g0) / conns
	t.Logf("one idle connection: %.0f B heap, %.2f goroutines, %.0f B stack",
		heap, goroutines, float64(int64(ms1.StackInuse)-int64(ms0.StackInuse))/conns)
	if heap > 4<<10 {
		t.Errorf("one idle connection holds %.0f B of heap, budget 4096", heap)
	}
	if goroutines > 2 {
		t.Errorf("one idle connection runs %.2f goroutines, budget 2", goroutines)
	}
}

// TestAllocBudgetMetricsPick: every operation has its pre-curried
// counters — AllMsgTypes lists each MsgType that has a name — and every
// other type byte shares the "unknown" child, so counting a call or a
// served request never formats a label, whatever byte a peer sent.
func TestAllocBudgetMetricsPick(t *testing.T) {
	listed := map[MsgType]bool{}
	for _, typ := range AllMsgTypes {
		listed[typ] = true
	}
	for n := 0; n < 256; n++ {
		typ := MsgType(n)
		if named := !strings.HasPrefix(typ.String(), "MsgType("); named != listed[typ] {
			t.Errorf("%v: has a name = %v, listed in AllMsgTypes = %v", typ, named, listed[typ])
		}
	}
	m := NewMetrics(metrics.NewRegistry())
	for n := 0; n < 256; n++ {
		typ := MsgType(n)
		avg := testing.AllocsPerRun(100, func() {
			pick(m.reqs, typ).Inc()
			m.ObserveServed(typ, false)
		})
		if avg != 0 {
			t.Errorf("counting one %v made %.1f heap objects, budget 0", typ, avg)
		}
	}
}
