package faultnet

import (
	"context"
	"errors"
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

// script drives a fixed logical call sequence through a network.
func script(nw *Network, inner wire.Caller) []error {
	a := nw.Caller("addrA", inner)
	b := nw.Caller("addrB", inner)
	nw.Bind("addrA", "a")
	nw.Bind("addrB", "b")
	nw.Bind("addrC", "c")
	var errs []error
	for i := 0; i < 40; i++ {
		_, err := a.Call(context.Background(), "addrB", wire.Request{Type: wire.TFindClosest})
		errs = append(errs, err)
		_, err = b.Call(context.Background(), "addrC", wire.Request{Type: wire.TPing})
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
		nw := New(seed)
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

func TestReplayReproducesEvents(t *testing.T) {
	rules := []Rule{{Drop: 0.25}, {Dst: "b", DropReply: 0.2}}
	nw := New(42)
	nw.SetRules(rules...)
	inner := &okCaller{}
	a := nw.Caller("addrA", inner)
	nw.Bind("addrA", "a")
	nw.Bind("addrB", "b")
	nw.Bind("addrC", "c")
	for i := 0; i < 15; i++ {
		_, _ = a.Call(context.Background(), "addrB", wire.Request{Type: wire.TStoreGet})
	}
	nw.Partition([]string{"a"}, []string{"b"})
	for i := 0; i < 5; i++ {
		_, _ = a.Call(context.Background(), "addrB", wire.Request{Type: wire.TStoreGet})
		_, _ = a.Call(context.Background(), "addrC", wire.Request{Type: wire.TStoreGet})
	}
	nw.Heal()
	for i := 0; i < 5; i++ {
		_, _ = a.Call(context.Background(), "addrB", wire.Request{Type: wire.TStoreGet})
	}
	got := eventStrings(Replay(42, nw.Log()))
	want := eventStrings(nw.Events())
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("replay diverged:\ngot  %v\nwant %v", got, want)
	}
	// Partitioned calls must all have been blocked; healed ones not.
	if c := nw.Counts()[KindPartition]; c != 5 {
		t.Errorf("partition blocks = %d, want 5 (a->b while split)", c)
	}
}

func TestDropNeverReachesInner(t *testing.T) {
	nw := New(1)
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
	nw := New(1)
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
	nw := New(1)
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
	nw := New(1)
	nw.SetRules(Rule{Dst: "slow", Delay: 30 * time.Millisecond})
	nw.Bind("s", "slow")
	c := nw.Caller("x", &okCaller{})
	start := time.Now()
	if _, err := c.Call(context.Background(), "s", wire.Request{Type: wire.TPing}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("slow-peer delay not applied: %v", d)
	}
	if nw.Counts()[KindDelay] != 1 {
		t.Error("delay not recorded")
	}
}

func TestRuleMatchers(t *testing.T) {
	nw := New(1)
	nw.SetRules(Rule{Src: "a", Dst: "b", Type: wire.TNotify, Drop: 1})
	inner := &okCaller{}
	ca := nw.Caller("addrA", inner)
	nw.Bind("addrA", "a")
	nw.Bind("addrB", "b")
	if _, err := ca.Call(context.Background(), "addrB", wire.Request{Type: wire.TStoreGet}); err != nil {
		t.Errorf("wrong msg type matched: %v", err)
	}
	if _, err := ca.Call(context.Background(), "addrB", wire.Request{Type: wire.TNotify}); err == nil {
		t.Error("matching call not dropped")
	}
	cb := nw.Caller("addrB", inner)
	if _, err := cb.Call(context.Background(), "addrA", wire.Request{Type: wire.TNotify}); err != nil {
		t.Errorf("reverse direction matched: %v", err)
	}
}

func TestUnknownAddressesUseRawNames(t *testing.T) {
	nw := New(1)
	nw.SetRules(Rule{Dst: "10.0.0.1:99", Drop: 1})
	c := nw.Caller("x", &okCaller{})
	if _, err := c.Call(context.Background(), "10.0.0.1:99", wire.Request{Type: wire.TPing}); err == nil {
		t.Error("unbound address did not fall back to its raw name")
	}
}

func TestSelfCallsExempt(t *testing.T) {
	nw := New(1)
	nw.SetRules(Rule{Drop: 1})
	nw.Bind("addrX", "x")
	inner := &okCaller{}
	c := nw.Caller("addrX", inner)
	if _, err := c.Call(context.Background(), "addrX", wire.Request{Type: wire.TFindClosest}); err != nil {
		t.Fatalf("loopback call faulted: %v", err)
	}
	if inner.count() != 1 {
		t.Error("loopback call did not reach the inner caller")
	}
	if len(nw.Events()) != 0 || len(nw.Log()) != 1 {
		t.Errorf("loopback call leaked into the fault state: %d events, %d ops",
			len(nw.Events()), len(nw.Log()))
	}
}

func TestInstrumentExposesCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	nw := New(3)
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

func TestConcurrentCallsRaceFree(t *testing.T) {
	nw := New(9)
	nw.SetRules(Rule{Drop: 0.5, Delay: time.Microsecond})
	inner := &okCaller{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := nw.Caller("x", inner)
			for i := 0; i < 50; i++ {
				_, _ = c.Call(context.Background(), "y", wire.Request{Type: wire.TPing})
			}
		}(g)
	}
	wg.Wait()
	// Per-edge decisions are scheduling-independent: the multiset of
	// fates over 400 draws on edge x->y is fixed by the seed.
	evs := Replay(9, nw.Log())
	if len(evs) != len(nw.Events()) {
		t.Errorf("replay produced %d events, live run %d", len(evs), len(nw.Events()))
	}
}
