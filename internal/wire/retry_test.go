package wire

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// scriptCaller replays a scripted sequence of outcomes and records the
// calls it received.
type scriptCaller struct {
	mu    sync.Mutex
	outs  []error
	calls int
}

func (s *scriptCaller) Call(ctx context.Context, addr string, req Request) (Response, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.calls < len(s.outs) {
		err = s.outs[s.calls]
	}
	s.calls++
	if err != nil {
		return Response{}, err
	}
	return Response{OK: true}, nil
}

func (s *scriptCaller) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func fastRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
}

func dialErr(addr string) error {
	return &NetError{Addr: addr, Op: "dial", Sent: false, Err: errors.New("refused")}
}

func recvErr(addr string) error {
	return &NetError{Addr: addr, Op: "recv", Sent: true, Err: errors.New("timeout")}
}

func TestTypedErrors(t *testing.T) {
	addr := echoServer(t, func(req Request) Response { return Response{Err: "nope"} })
	_, err := callT(addr, Request{Type: TStoreGet, Name: "x"}, 2*time.Second)
	var re *RemoteError
	if !errors.As(err, &re) || re.Type != TStoreGet || !strings.Contains(re.Msg, "nope") {
		t.Fatalf("want RemoteError, got %#v", err)
	}
	if !IsRemote(err) {
		t.Error("IsRemote(RemoteError) = false")
	}
	_, err = callT("127.0.0.1:1", Request{Type: TPing}, 300*time.Millisecond)
	var ne *NetError
	if !errors.As(err, &ne) || ne.Op != "dial" || ne.Sent {
		t.Fatalf("want unsent dial NetError, got %#v", err)
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		t    MsgType
		err  error
		want bool
	}{
		{TStoreGet, &RemoteError{Type: TStoreGet, Msg: "missing"}, false}, // app error: never
		{TNotify, dialErr("a"), true},                                     // never sent: always
		{TNotify, recvErr("a"), false},                                    // maybe applied: unsafe
		{TPutRingTable, recvErr("a"), false},                              // maybe applied: unsafe
		{TFindClosest, recvErr("a"), true},                                // idempotent read
		{TEvict, recvErr("a"), true},                                      // purging twice is a no-op
		{TPing, &CircuitOpenError{Addr: "a"}, false},                      // breaker decides, not retry
		{TPing, nil, false},
	}
	for i, c := range cases {
		if got := Retryable(c.t, c.err); got != c.want {
			t.Errorf("case %d: Retryable(%v, %v) = %v, want %v", i, c.t, c.err, got, c.want)
		}
	}
}

func TestRetrierRecoversTransientFailure(t *testing.T) {
	reg := metrics.NewRegistry()
	sc := &scriptCaller{outs: []error{dialErr("p"), dialErr("p"), nil}}
	r := NewRetrier(sc, fastRetry(), BreakerPolicy{}, reg)
	resp, err := r.Call(context.Background(), "p", Request{Type: TPing})
	if err != nil || !resp.OK {
		t.Fatalf("call failed: %v", err)
	}
	if sc.count() != 3 {
		t.Errorf("attempts = %d, want 3", sc.count())
	}
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "wire_retries_total 2") {
		t.Errorf("exposition missing retry count:\n%s", b.String())
	}
}

func TestRetrierNeverRetriesRemoteErrors(t *testing.T) {
	sc := &scriptCaller{outs: []error{&RemoteError{Type: TStoreGet, Msg: "missing"}}}
	r := NewRetrier(sc, fastRetry(), BreakerPolicy{}, nil)
	_, err := r.Call(context.Background(), "p", Request{Type: TStoreGet})
	if !IsRemote(err) {
		t.Fatalf("want RemoteError through, got %v", err)
	}
	if sc.count() != 1 {
		t.Errorf("remote error retried: %d attempts", sc.count())
	}
	if r.ConsecutiveFailures("p") != 0 {
		t.Error("remote error counted as peer failure")
	}
}

func TestRetrierIdempotencyAware(t *testing.T) {
	// A non-idempotent notify whose request may have been applied: one shot.
	sc := &scriptCaller{outs: []error{recvErr("p")}}
	r := NewRetrier(sc, fastRetry(), BreakerPolicy{}, nil)
	if _, err := r.Call(context.Background(), "p", Request{Type: TNotify, Layer: 1}); err == nil {
		t.Fatal("want failure")
	}
	if sc.count() != 1 {
		t.Errorf("unsafe notify retried: %d attempts", sc.count())
	}
	// The same notify failing at dial never reached the peer: retried.
	sc2 := &scriptCaller{outs: []error{dialErr("p"), nil}}
	r2 := NewRetrier(sc2, fastRetry(), BreakerPolicy{}, nil)
	if _, err := r2.Call(context.Background(), "p", Request{Type: TNotify, Layer: 1}); err != nil {
		t.Fatalf("unsent notify not retried: %v", err)
	}
	if sc2.count() != 2 {
		t.Errorf("attempts = %d, want 2", sc2.count())
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	reg := metrics.NewRegistry()
	sc := &scriptCaller{outs: []error{
		dialErr("p"), dialErr("p"), dialErr("p"), // opens at threshold 3
	}}
	r := NewRetrier(sc, fastRetry(), BreakerPolicy{Threshold: 3, Cooldown: 30 * time.Millisecond}, reg)
	if _, err := r.Call(context.Background(), "p", Request{Type: TPing}); err == nil {
		t.Fatal("want failure")
	}
	if !r.BreakerOpen("p") {
		t.Fatal("breaker not open after threshold failures")
	}
	if r.ConsecutiveFailures("p") != 3 {
		t.Errorf("failures = %d", r.ConsecutiveFailures("p"))
	}
	// While open: fail fast without touching the peer.
	before := sc.count()
	_, err := r.Call(context.Background(), "p", Request{Type: TPing})
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("want ErrCircuitOpen, got %v", err)
	}
	if sc.count() != before {
		t.Error("open breaker still dialed the peer")
	}
	// After the cooldown a probe goes through; success closes the breaker.
	time.Sleep(40 * time.Millisecond)
	if _, err := r.Call(context.Background(), "p", Request{Type: TPing}); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if r.BreakerOpen("p") || r.ConsecutiveFailures("p") != 0 {
		t.Error("breaker did not close after successful probe")
	}
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"wire_breaker_opens_total 1",
		"wire_breaker_closes_total 1",
		"wire_breaker_fail_fast_total 1",
		"wire_breaker_open 0",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	sc := &scriptCaller{} // no script: every call fails below
	fail := CallerFunc(func(ctx context.Context, addr string, req Request) (Response, error) {
		sc.Call(ctx, addr, req)
		return Response{}, dialErr(addr)
	})
	r := NewRetrier(fail, RetryPolicy{MaxAttempts: 1}, BreakerPolicy{Threshold: 1, Cooldown: 10 * time.Millisecond}, nil)
	if _, err := r.Call(context.Background(), "p", Request{Type: TPing}); err == nil {
		t.Fatal("want failure")
	}
	time.Sleep(15 * time.Millisecond)
	if _, err := r.Call(context.Background(), "p", Request{Type: TPing}); err == nil {
		t.Fatal("want probe failure")
	}
	if !r.BreakerOpen("p") {
		t.Error("failed probe did not reopen the breaker")
	}
	// The reopened breaker rejects again without dialing.
	before := sc.count()
	if _, err := r.Call(context.Background(), "p", Request{Type: TPing}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("want ErrCircuitOpen, got %v", err)
	}
	if sc.count() != before {
		t.Error("reopened breaker dialed the peer")
	}
}

func TestRetrierOverallBudget(t *testing.T) {
	sc := &scriptCaller{outs: []error{dialErr("p"), dialErr("p"), dialErr("p"), dialErr("p")}}
	r := NewRetrier(sc, RetryPolicy{
		MaxAttempts: 4, BaseBackoff: 50 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
	}, BreakerPolicy{Threshold: -1}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := r.Call(ctx, "p", Request{Type: TPing}); err == nil {
		t.Fatal("want failure")
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Errorf("overall budget not honored: %v", elapsed)
	}
	if sc.count() >= 4 {
		t.Errorf("attempts = %d, want < 4 under the overall budget", sc.count())
	}
}

// TestRetrierFreshDeadlinePerAttempt: the attempt contexts are pooled, so
// one object may carry every attempt of a call. Each attempt must still
// see its own deadline — its start plus PerAttempt, never an earlier
// attempt's — and a parent cancelled mid-attempt must show through the
// pooled context's Done and Err.
func TestRetrierFreshDeadlinePerAttempt(t *testing.T) {
	const perAttempt = time.Hour
	type seen struct{ before, start, deadline time.Time }
	var attempts []seen
	last := time.Now()
	fail := CallerFunc(func(ctx context.Context, addr string, req Request) (Response, error) {
		dl, ok := ctx.Deadline()
		if !ok {
			t.Fatal("attempt context carries no deadline")
		}
		attempts = append(attempts, seen{before: last, start: time.Now(), deadline: dl})
		last = time.Now()
		return Response{}, dialErr(addr)
	})
	r := NewRetrier(fail, RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
		PerAttempt: perAttempt}, BreakerPolicy{Threshold: -1}, nil)
	if _, err := r.Call(context.Background(), "p", Request{Type: TPing}); err == nil {
		t.Fatal("want failure")
	}
	if len(attempts) != 3 {
		t.Fatalf("%d attempts, want 3", len(attempts))
	}
	for i, a := range attempts {
		// The retrier stamps the deadline after the previous attempt
		// returned and before this one started.
		if a.deadline.Before(a.before.Add(perAttempt)) || a.deadline.After(a.start.Add(perAttempt)) {
			t.Errorf("attempt %d: deadline %v, want in [%v, %v]", i, a.deadline, a.before.Add(perAttempt), a.start.Add(perAttempt))
		}
		if i > 0 && !a.deadline.After(attempts[i-1].deadline) {
			t.Errorf("attempt %d reused attempt %d's deadline %v", i, i-1, a.deadline)
		}
	}

	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelled := CallerFunc(func(ctx context.Context, addr string, req Request) (Response, error) {
		if _, ok := ctx.Deadline(); !ok {
			t.Fatal("attempt context carries no deadline")
		}
		cancel()
		select {
		case <-ctx.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("the parent's cancellation did not close the attempt context's Done")
		}
		if !errors.Is(ctx.Err(), context.Canceled) {
			t.Errorf("attempt context Err = %v, want context.Canceled", ctx.Err())
		}
		return Response{}, &NetError{Addr: addr, Op: "call", Sent: true, Err: context.Cause(ctx)}
	})
	r = NewRetrier(cancelled, RetryPolicy{MaxAttempts: 3, PerAttempt: perAttempt}, BreakerPolicy{Threshold: -1}, nil)
	if _, err := r.Call(parent, "p", Request{Type: TPing}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled call returned %v, want context.Canceled", err)
	}
}

func TestWriteFrameStalledReader(t *testing.T) {
	// A client that sends a request and then never reads: the server-side
	// frame write must error out once its per-frame deadline fires instead
	// of pinning the handler goroutine forever. net.Pipe has no buffering,
	// so the write blocks immediately.
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	done := make(chan error, 1)
	go func() {
		resp := Response{OK: true, Value: make([]byte, 1<<20)}
		done <- writeFrame(server, 1, &resp, 200*time.Millisecond)
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("stalled-reader write reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writeFrame blocked past its deadline on a stalled reader")
	}
}

func TestWriteDeadlineResetPerFrame(t *testing.T) {
	// Regression for the pooled-connection deadline bug: the write
	// deadline must be re-armed from the current time for every frame. An
	// implementation that arms it once per connection would fail the later
	// exchanges of a long-lived session, because by then the original
	// deadline has passed.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, acceptErr := ln.Accept()
			if acceptErr != nil {
				return
			}
			go func() {
				_ = ServeConn(conn, func(req Request) Response {
					return Response{OK: true, Err: req.Name}
				}, ServeOptions{WriteTimeout: 150 * time.Millisecond})
			}()
		}
	}()
	p := NewPool(PoolOptions{Timeout: 150 * time.Millisecond})
	defer p.Close()
	addr := ln.Addr().String()
	for i := 0; i < 4; i++ {
		if i > 0 {
			// Sit out longer than the per-frame write timeout between
			// exchanges; only an accumulated deadline would expire.
			time.Sleep(200 * time.Millisecond)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		resp, callErr := p.Call(ctx, addr, Request{Type: TPing, Name: "seq"})
		cancel()
		if callErr != nil {
			t.Fatalf("exchange %d over reused connection: %v", i, callErr)
		}
		if resp.Err != "seq" {
			t.Fatalf("exchange %d echoed %q", i, resp.Err)
		}
	}
}

func TestMsgTypeIdempotencyTable(t *testing.T) {
	if Idempotent(TNotify) || Idempotent(TPutRingTable) ||
		Idempotent(TLeaveSucc) || Idempotent(TLeavePred) {
		t.Error("state-installing writes must not be idempotent")
	}
	for _, typ := range []MsgType{TPing, TGetInfo, TFindClosest, TGetNeighbors, TGetRingTable, TEvict} {
		if !Idempotent(typ) {
			t.Errorf("%v should be idempotent", typ)
		}
	}
	// The replica store writes are version-guarded merges: replaying a
	// delivered write merges to a no-op, so they retry safely even when
	// the first attempt may have been applied.
	for _, typ := range []MsgType{TStorePut, TStoreGet, TReplicate, THandoff} {
		if !Idempotent(typ) {
			t.Errorf("%v should be idempotent (version-guarded merge)", typ)
		}
	}
	// Anti-entropy exchanges are reads over the receiver's store.
	for _, typ := range []MsgType{TDigest, TSyncPull} {
		if !Idempotent(typ) {
			t.Errorf("%v should be idempotent (anti-entropy read)", typ)
		}
	}
	// Route gossip is a stamp-guarded merge: replays are no-ops.
	if !Idempotent(TRouteGossip) {
		t.Error("TRouteGossip should be idempotent (stamp-guarded merge)")
	}
}

// TestRetrierBackoffJitter: every backoff lies in [d/2, d) for its capped
// step d, the draws are not all equal, and two retriers draw the same
// sequence (one fixed seed; jitter never decides what is retried).
func TestRetrierBackoffJitter(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 8, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 300 * time.Millisecond}
	a := NewRetrier(nil, p, BreakerPolicy{}, nil)
	b := NewRetrier(nil, p, BreakerPolicy{}, nil)
	distinct := map[time.Duration]bool{}
	for i := 0; i < 1000; i++ {
		retry := 1 + i%7
		d := min(10*time.Millisecond<<(retry-1), 300*time.Millisecond)
		got := a.backoff(retry)
		if got < d/2 || got >= d {
			t.Fatalf("draw %d: backoff(%d) = %v, want in [%v, %v)", i, retry, got, d/2, d)
		}
		if again := b.backoff(retry); again != got {
			t.Fatalf("draw %d: two retriers drew %v and %v", i, got, again)
		}
		distinct[got] = true
	}
	if len(distinct) < 900 {
		t.Errorf("1,000 draws gave only %d distinct backoffs", len(distinct))
	}
}
