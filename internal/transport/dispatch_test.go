package transport

import (
	"context"
	"errors"
	"testing"

	"repro/internal/wire"
)

// TestDispatchRefusesLikeADeadAddress: a request dispatched to a closed
// node fails as a dial to a dead MemNet address does — a *wire.NetError
// from the dial step, nothing sent, wrapping wire.ErrConnRefused — so the
// caller's retrier, breaker and suspectDead decide the same on either net.
func TestDispatchRefusesLikeADeadAddress(t *testing.T) {
	type verdict struct {
		retries    uint64
		failures   int
		open, dead bool
	}
	judge := func(direct bool) verdict {
		mem := wire.NewMemNet()
		b := startOneRing(t, mem, "b")
		a := startOneRing(t, mem, "a", func(cfg *Config) {
			cfg.Breaker = wire.BreakerPolicy{Threshold: 2}
			if direct {
				cfg.WrapCaller = func(string, wire.Caller) wire.Caller {
					return wire.CallerFunc(func(ctx context.Context, _ string, req wire.Request) (wire.Response, error) {
						return b.Dispatch(ctx, req)
					})
				}
			}
		})
		_ = b.Close()
		_, err := a.call(context.Background(), "b", wire.Request{Type: wire.TPing})
		var ne *wire.NetError
		if !errors.As(err, &ne) || ne.Op != "dial" || ne.Sent || !errors.Is(err, wire.ErrConnRefused) {
			t.Errorf("direct %t: a ping to a closed node = %v, want a refused dial", direct, err)
		}
		return verdict{a.retrier.Retries(), a.retrier.ConsecutiveFailures("b"), a.retrier.BreakerOpen("b"), a.suspectDead("b")}
	}
	mem, direct := judge(false), judge(true)
	if direct != mem || !mem.dead || !mem.open {
		t.Errorf("caller's verdict on a closed node: MemNet %+v, direct %+v; want equal, dead and breaker open", mem, direct)
	}
}

// TestDispatchCountsOneServedRequest: a dispatched request is one request
// served — one more Handled and one more rpc_server_requests_total of its
// type, whether it is answered OK or refused with a RemoteError.
func TestDispatchCountsOneServedRequest(t *testing.T) {
	b := startOneRing(t, wire.NewMemNet(), "b")
	if err := b.CreateNetwork(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		typ    wire.MsgType
		label  string
		remote bool
	}{
		{wire.TPing, "ping", false},
		{99, "unknown", true},
	} {
		served := `rpc_server_requests_total{type="` + tc.label + `"}`
		handled, before := b.Handled(), counterValue(t, b, served)
		_, err := b.Dispatch(context.Background(), wire.Request{Type: tc.typ})
		if tc.remote && !wire.IsRemote(err) || !tc.remote && err != nil {
			t.Errorf("%s: Dispatch = %v, want a RemoteError %t", tc.label, err, tc.remote)
		}
		if got := b.Handled() - handled; got != 1 {
			t.Errorf("%s: Handled() moved by %d, want 1", tc.label, got)
		}
		if got := counterValue(t, b, served) - before; got != 1 {
			t.Errorf("%s: %s moved by %v, want 1", tc.label, served, got)
		}
	}
}

// TestDispatchedValuesAreCopies: the codec round trip keeps the wire's
// ownership rule. After a dispatched store_put the sender may reuse its
// value buffer: the receiver stored a copy, as it does off a session.
func TestDispatchedValuesAreCopies(t *testing.T) {
	b := startOneRing(t, wire.NewMemNet(), "b")
	if err := b.CreateNetwork(); err != nil {
		t.Fatal(err)
	}
	put := wire.Request{Type: wire.TStorePut, Items: []wire.StoreItem{{Key: "k", Value: []byte("first"), Version: 1, Writer: "a#1"}}}
	if resp, err := b.Dispatch(context.Background(), put); err != nil || resp.Applied != 1 {
		t.Fatalf("store_put = %+v, %v", resp, err)
	}
	copy(put.Items[0].Value, "xxxxx")
	if got, _ := b.GetLocal("k"); string(got) != "first" {
		t.Errorf("stored value = %q after the sender reused its buffer, want %q", got, "first")
	}
}
