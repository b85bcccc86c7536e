//go:build !race

// The garbage budget of one exchange, held as tests: allocation counts
// are exact and machine-independent, so unlike a timing they can gate.
// testing.AllocsPerRun counts the whole process, which is what puts the
// server's share on the books too; under the race detector the counts
// mean nothing, hence the build tag. CI runs these as the alloc-budget
// step (make allocs).

package wire

import (
	"bufio"
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestAllocBudgetPoolCall: one find_closest over MemNet, client and
// server together, may create at most 4 heap objects. Three are spent
// today: the two address strings of the decoded response and the go
// statement's closure.
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
	if avg > 4 {
		t.Errorf("one find_closest exchange made %.1f heap objects, budget 4", avg)
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

// TestAllocBudgetReadFrame: a frame read into a reused buffer is free,
// header included.
func TestAllocBudgetReadFrame(t *testing.T) {
	frame := append([]byte(nil), frameHole[:]...)
	frame, err := Binary{}.AppendResponse(frame, &Response{OK: true, Next: Peer{Addr: "127.0.0.1:24107"}})
	if err != nil {
		t.Fatal(err)
	}
	putFrameHeader(frame, 42)
	src := bytes.NewReader(frame)
	br := bufio.NewReader(src)
	buf := make([]byte, 0, 512)
	avg := testing.AllocsPerRun(500, func() {
		src.Reset(frame)
		br.Reset(src)
		payload, tag, rerr := readFrame(br, buf[:0])
		if rerr != nil || tag != 42 || !bytes.Equal(payload, frame[frameHeader:]) {
			t.Fatalf("readFrame: tag %d, %v", tag, rerr)
		}
	})
	if avg != 0 {
		t.Errorf("readFrame made %.1f heap objects, budget 0", avg)
	}
}

// TestAllocBudgetMetricsPick: every operation has its pre-curried
// counters — AllMsgTypes lists each MsgType that has a name — so
// counting a call never formats a label.
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
	for _, typ := range AllMsgTypes {
		avg := testing.AllocsPerRun(100, func() {
			pick(&m.reqs, m.reqVec, typ).Inc()
			m.ObserveServed(typ, false)
		})
		if avg != 0 {
			t.Errorf("counting one %v made %.1f heap objects, budget 0", typ, avg)
		}
	}
}
