package faultnet

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// okCaller answers every call successfully and counts them.
type okCaller struct {
	mu    sync.Mutex
	calls int
}

func (c *okCaller) Call(ctx context.Context, addr string, req wire.Request) (wire.Response, error) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return wire.Response{OK: true}, nil
}

func (c *okCaller) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// script drives a fixed call sequence through a network.
func script(nw *Network, inner wire.Caller) []error {
	a := nw.Caller("a", inner)
	b := nw.Caller("b", inner)
	var errs []error
	for i := 0; i < 40; i++ {
		_, err := a.Call(context.Background(), "b", wire.Request{Type: wire.TFindClosest})
		errs = append(errs, err)
		_, err = b.Call(context.Background(), "c", wire.Request{Type: wire.TPing})
		errs = append(errs, err)
	}
	return errs
}

func eventStrings(evs []Event) []string {
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = e.String()
	}
	return out
}

func TestSameSeedSameFaultSequence(t *testing.T) {
	rules := []Rule{{Drop: 0.3}, {Dst: "c", ErrReply: 0.2}}
	run := func(seed int64) []string {
		nw := New(seed, wire.WallClock)
		nw.SetRules(rules...)
		script(nw, &okCaller{})
		return eventStrings(nw.Events())
	}
	r1, r2 := run(7), run(7)
	if len(r1) == 0 {
		t.Fatal("no faults injected at 30% drop over 80 calls")
	}
	if strings.Join(r1, "\n") != strings.Join(r2, "\n") {
		t.Fatalf("same seed diverged:\n%v\nvs\n%v", r1, r2)
	}
	if strings.Join(r1, "\n") == strings.Join(run(8), "\n") {
		t.Error("different seeds produced identical fault sequences")
	}
}

func TestDropNeverReachesInner(t *testing.T) {
	nw := New(1, wire.WallClock)
	nw.SetRules(Rule{Drop: 1})
	inner := &okCaller{}
	c := nw.Caller("x", inner)
	_, err := c.Call(context.Background(), "y", wire.Request{Type: wire.TPing})
	var ne *wire.NetError
	if !errors.As(err, &ne) || ne.Sent {
		t.Fatalf("want unsent NetError, got %v", err)
	}
	if inner.count() != 0 {
		t.Error("dropped request still reached the inner caller")
	}
}

func TestDropReplyExecutesInner(t *testing.T) {
	nw := New(1, wire.WallClock)
	nw.SetRules(Rule{DropReply: 1})
	inner := &okCaller{}
	c := nw.Caller("x", inner)
	_, err := c.Call(context.Background(), "y", wire.Request{Type: wire.TNotify})
	var ne *wire.NetError
	if !errors.As(err, &ne) || !ne.Sent {
		t.Fatalf("want sent NetError, got %v", err)
	}
	if inner.count() != 1 {
		t.Errorf("drop_reply inner calls = %d, want 1 (the request IS applied)", inner.count())
	}
}

func TestErrReplyIsRemoteError(t *testing.T) {
	nw := New(1, wire.WallClock)
	nw.SetRules(Rule{ErrReply: 1})
	inner := &okCaller{}
	c := nw.Caller("x", inner)
	_, err := c.Call(context.Background(), "y", wire.Request{Type: wire.TStoreGet})
	if !wire.IsRemote(err) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if inner.count() != 0 {
		t.Error("err_reply should short-circuit the inner call")
	}
	// And therefore the retry layer must not retry it.
	if wire.Retryable(wire.TStoreGet, err) {
		t.Error("injected remote error classified retryable")
	}
}

func TestDelayRule(t *testing.T) {
	nw := New(1, wire.WallClock)
	nw.SetRules(Rule{Dst: "slow", Delay: 30 * time.Millisecond})
	c := nw.Caller("x", &okCaller{})
	start := time.Now()
	if _, err := c.Call(context.Background(), "slow", wire.Request{Type: wire.TPing}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("slow-peer delay not applied: %v", d)
	}
	if nw.Counts()[KindDelay] != 1 {
		t.Error("delay not recorded")
	}

	// A delay waits on the network's clock: a caller that gives up while
	// it waits never reaches the peer, and its call fails unsent.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inner := &okCaller{}
	manual := New(1, new(wire.ManualClock))
	manual.SetRules(Rule{Delay: time.Hour})
	_, err := manual.Caller("x", inner).Call(ctx, "s", wire.Request{Type: wire.TPing})
	var ne *wire.NetError
	if inner.count() != 0 || !errors.As(err, &ne) || ne.Sent || !errors.Is(err, context.Canceled) {
		t.Errorf("call abandoned during its delay: %v after %d calls reached the peer, want an unsent context.Canceled", err, inner.count())
	}
}

func TestRuleMatchers(t *testing.T) {
	nw := New(1, wire.WallClock)
	nw.SetRules(Rule{Src: "a", Dst: "b", Type: wire.TNotify, Drop: 1})
	inner := &okCaller{}
	ca := nw.Caller("a", inner)
	if _, err := ca.Call(context.Background(), "b", wire.Request{Type: wire.TStoreGet}); err != nil {
		t.Errorf("wrong msg type matched: %v", err)
	}
	if _, err := ca.Call(context.Background(), "b", wire.Request{Type: wire.TNotify}); err == nil {
		t.Error("matching call not dropped")
	}
	cb := nw.Caller("b", inner)
	if _, err := cb.Call(context.Background(), "a", wire.Request{Type: wire.TNotify}); err != nil {
		t.Errorf("reverse direction matched: %v", err)
	}
}

func TestSelfCallsExempt(t *testing.T) {
	nw := New(1, wire.WallClock)
	nw.SetRules(Rule{Drop: 1})
	inner := &okCaller{}
	c := nw.Caller("x", inner)
	if _, err := c.Call(context.Background(), "x", wire.Request{Type: wire.TFindClosest}); err != nil {
		t.Fatalf("loopback call faulted: %v", err)
	}
	if inner.count() != 1 {
		t.Error("loopback call did not reach the inner caller")
	}
	if len(nw.Events()) != 0 {
		t.Errorf("loopback call leaked into the fault state: %d events", len(nw.Events()))
	}
}

func TestInstrumentExposesCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	nw := New(3, wire.WallClock)
	nw.Instrument(reg)
	nw.SetRules(Rule{Drop: 1})
	c := nw.Caller("x", &okCaller{})
	_, _ = c.Call(context.Background(), "y", wire.Request{Type: wire.TPing})
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `faultnet_injected_total{kind="drop"} 1`) {
		t.Errorf("exposition missing injection counter:\n%s", b.String())
	}
}

// TestConcurrentCallsRaceFree: calls racing on the same edges from many
// goroutines meet the fates the same calls meet one at a time on a fresh
// network, because the n-th call on an edge is decided by the edge and n
// alone: per edge, the injected faults of each kind are the same.
func TestConcurrentCallsRaceFree(t *testing.T) {
	edges := [][2]string{{"x", "y"}, {"x", "z"}, {"y", "x"}, {"y", "z"}}
	run := func(concurrent bool) map[Event]int {
		nw := New(9, wire.WallClock)
		nw.SetRules(Rule{Drop: 0.5, Delay: time.Microsecond}, Rule{Dst: "z", DropReply: 0.3})
		var wg sync.WaitGroup
		for _, e := range edges {
			c := nw.Caller(e[0], &okCaller{})
			calls := func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					_, _ = c.Call(context.Background(), e[1], wire.Request{Type: wire.TPing})
				}
			}
			for g := 0; g < 4; g++ {
				wg.Add(1)
				if concurrent {
					go calls()
				} else {
					calls()
				}
			}
		}
		wg.Wait()
		perEdge := map[Event]int{} // by edge and kind
		for _, e := range nw.Events() {
			perEdge[Event{Src: e.Src, Dst: e.Dst, Kind: e.Kind}]++
		}
		return perEdge
	}
	raced, seq := run(true), run(false)
	if !reflect.DeepEqual(raced, seq) {
		t.Errorf("faults per edge under concurrency differ from a sequential run:\n  concurrent %v\n  sequential %v", raced, seq)
	}
	if seq[Event{Src: "x", Dst: "z", Kind: KindDropReply}] == 0 || seq[Event{Src: "y", Dst: "x", Kind: KindDrop}] == 0 {
		t.Errorf("degenerate run injected %v", seq)
	}
}
