package wire

import (
	"context"
	"sync"
	"time"

	"repro/internal/metrics"
)

// RetryPolicy bounds how a failed call is reattempted. The zero value
// means "use defaults"; MaxAttempts 1 disables retrying entirely.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per call, first try
	// included (0 = default 3; values < 1 clamp to 1).
	MaxAttempts int
	// BaseBackoff is the sleep before the first retry; it doubles per
	// subsequent retry (0 = default 20ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the per-retry sleep (0 = default 500ms).
	MaxBackoff time.Duration
	// PerAttempt bounds each individual attempt: the retrier hands every
	// try a context whose deadline is at most this far away, so one hung
	// attempt cannot eat the whole budget. 0 = DefaultTimeout; negative
	// leaves attempts bounded only by the caller's context.
	PerAttempt time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 3
	}
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseBackoff == 0 {
		p.BaseBackoff = 20 * time.Millisecond
	}
	if p.MaxBackoff == 0 {
		p.MaxBackoff = 500 * time.Millisecond
	}
	if p.PerAttempt == 0 {
		p.PerAttempt = DefaultTimeout
	}
	return p
}

// EffectiveAttempts returns the per-call attempt count after defaulting
// — what the transport layer uses to derive its eviction threshold.
func (p RetryPolicy) EffectiveAttempts() int { return p.withDefaults().MaxAttempts }

// BreakerPolicy configures the per-peer circuit breaker. The zero value
// means "use defaults"; a negative Threshold disables breaking.
type BreakerPolicy struct {
	// Threshold is the consecutive transport-failure count that opens a
	// peer's breaker (0 = default 5; negative disables the breaker).
	Threshold int
	// Cooldown is how long an open breaker rejects calls before letting
	// a probe through (half-open). 0 = default 2s.
	Cooldown time.Duration
}

func (p BreakerPolicy) withDefaults() BreakerPolicy {
	if p.Threshold == 0 {
		p.Threshold = 5
	}
	if p.Cooldown == 0 {
		p.Cooldown = 2 * time.Second
	}
	return p
}

const (
	stateClosed = iota
	stateOpen
	stateHalfOpen
)

// breaker is one peer's failure-suspicion record.
type breaker struct {
	fails    int // consecutive transport failures (reset by any success)
	state    int
	openedAt time.Time
}

// Retrier wraps a Caller with exponential-backoff retries and a per-peer
// circuit breaker. Retries are idempotency-aware (see Retryable): remote
// application errors are never retried, non-idempotent writes only when
// the request provably never reached the peer. The breaker doubles as
// the failure-suspicion tracker the transport layer consults before
// reporting a peer dead via TEvict.
type Retrier struct {
	inner Caller
	rp    RetryPolicy
	bp    BreakerPolicy

	mu sync.Mutex
	// jitter is the state of the splitmix64 generator backoff draws from.
	// Jitter decorrelates retry storms between peers; it never decides
	// which calls are retried, so one fixed seed serves every retrier, and
	// 8 bytes of state do (a math/rand source was 5 KB a node).
	jitter uint64
	peers  map[string]*breaker

	retries  *metrics.Counter
	opens    *metrics.Counter
	closes   *metrics.Counter
	failFast *metrics.Counter
	openNow  *metrics.Gauge
}

// NewRetrier builds a retrying, breaker-guarded caller around inner.
// With a nil registry the counters are private throwaways.
func NewRetrier(inner Caller, rp RetryPolicy, bp BreakerPolicy, reg *metrics.Registry) *Retrier {
	rp = rp.withDefaults()
	bp = bp.withDefaults()
	r := &Retrier{
		inner:  inner,
		rp:     rp,
		bp:     bp,
		jitter: 1,
		peers:  make(map[string]*breaker),
	}
	if reg != nil {
		r.retries = reg.NewCounter("wire_retries_total",
			"RPC attempts beyond the first, across all peers.")
		r.opens = reg.NewCounter("wire_breaker_opens_total",
			"Circuit breaker transitions to open.")
		r.closes = reg.NewCounter("wire_breaker_closes_total",
			"Circuit breaker transitions back to closed.")
		r.failFast = reg.NewCounter("wire_breaker_fail_fast_total",
			"Calls rejected without dialing because the peer's breaker was open.")
		r.openNow = reg.NewGauge("wire_breaker_open",
			"Peers whose circuit breaker is currently open.")
	} else {
		r.retries = &metrics.Counter{}
		r.opens = &metrics.Counter{}
		r.closes = &metrics.Counter{}
		r.failFast = &metrics.Counter{}
		r.openNow = &metrics.Gauge{}
	}
	return r
}

// Call implements Caller with retries and breaker checks. The overall
// budget is the caller's context deadline: a retry whose backoff sleep
// would end past it is not attempted. Each attempt additionally gets a
// PerAttempt deadline, and backoff sleeps abort on cancellation.
func (r *Retrier) Call(ctx context.Context, addr string, req Request) (Response, error) {
	deadline, bounded := ctx.Deadline()
	var lastErr error
	for attempt := 0; attempt < r.rp.MaxAttempts; attempt++ {
		if attempt > 0 {
			sleep := r.backoff(attempt)
			if bounded && time.Now().Add(sleep).After(deadline) {
				break // out of overall budget; report the last failure
			}
			r.retries.Inc()
			timer := time.NewTimer(sleep)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return Response{}, lastErr // canceled mid-backoff: attempt > 0, so lastErr is set
			}
		}
		if ctx.Err() != nil {
			break
		}
		if !r.allow(addr) {
			r.failFast.Inc()
			return Response{}, &CircuitOpenError{Addr: addr}
		}
		resp, err := r.attempt(ctx, addr, req)
		if err == nil || IsRemote(err) {
			// Either outcome proves the peer is alive and responsive.
			r.succeed(addr)
			return resp, err
		}
		r.fail(addr)
		lastErr = err
		if !Retryable(req.Type, err) {
			return resp, err
		}
	}
	if lastErr == nil {
		// The context died before the first attempt ran: no peer
		// involvement, so Sent is false and no failure was recorded.
		lastErr = &NetError{Addr: addr, Op: "call", Sent: false, Err: context.Cause(ctx)}
	}
	return Response{}, lastErr
}

// attempt runs one try under the policy's per-attempt timeout. The bound
// travels as a deadline only (attemptCtx): nothing below the retrier
// blocks without honouring Deadline — that is Caller's contract — so no
// timer, cancel func or Done channel is built per attempt, and nothing
// keeps ctx past Call either, so the context itself is pooled.
func (r *Retrier) attempt(ctx context.Context, addr string, req Request) (Response, error) {
	if r.rp.PerAttempt <= 0 {
		return r.inner.Call(ctx, addr, req)
	}
	deadline := time.Now().Add(r.rp.PerAttempt)
	if dl, ok := ctx.Deadline(); ok && !deadline.Before(dl) {
		return r.inner.Call(ctx, addr, req) // the caller's own deadline is the tighter one
	}
	actx := attemptCtxPool.Get().(*attemptCtx)
	actx.Context, actx.deadline = ctx, deadline
	resp, err := r.inner.Call(actx, addr, req)
	*actx = attemptCtx{} // a pooled context pins no parent
	attemptCtxPool.Put(actx)
	return resp, err
}

// attemptCtx is its parent with an earlier deadline and nothing to
// enforce it: Done, Err and Value are the parent's, so it reports
// cancellation of the call but never its own expiry.
type attemptCtx struct {
	context.Context
	deadline time.Time
}

var attemptCtxPool = sync.Pool{New: func() interface{} { return new(attemptCtx) }}

// Deadline implements context.Context.
func (c *attemptCtx) Deadline() (time.Time, bool) { return c.deadline, true }

// backoff returns the jittered sleep before retry number `retry` (1 is
// the first retry): base doubled per step, capped, scaled into
// [0.5, 1.0) so simultaneous retriers decorrelate.
func (r *Retrier) backoff(retry int) time.Duration {
	d := r.rp.BaseBackoff << uint(retry-1)
	if d > r.rp.MaxBackoff || d <= 0 {
		d = r.rp.MaxBackoff
	}
	r.mu.Lock()
	r.jitter += 0x9e3779b97f4a7c15
	z := r.jitter
	r.mu.Unlock()
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	f := 0.5 + 0.5*float64(z>>11)/(1<<53) // z>>11 / 2^53 is uniform in [0, 1)
	return time.Duration(float64(d) * f)
}

// allow reports whether a call to addr may proceed, moving an open
// breaker to half-open once its cooldown elapsed.
func (r *Retrier) allow(addr string) bool {
	if r.bp.Threshold < 0 {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.peers[addr]
	if !ok || b.state == stateClosed {
		return true
	}
	if b.state == stateOpen {
		if time.Since(b.openedAt) < r.bp.Cooldown {
			return false
		}
		b.state = stateHalfOpen // let a probe through
	}
	return true // half-open: probing
}

// succeed resets addr's failure record, closing its breaker.
func (r *Retrier) succeed(addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.peers[addr]
	if !ok {
		return
	}
	if b.state != stateClosed {
		r.closes.Inc()
		r.openNow.Dec()
	}
	delete(r.peers, addr)
}

// fail records one transport failure against addr, opening the breaker
// at the threshold (or re-opening a half-open breaker whose probe failed).
func (r *Retrier) fail(addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.peers[addr]
	if !ok {
		b = &breaker{}
		r.peers[addr] = b
	}
	b.fails++
	if r.bp.Threshold < 0 {
		return
	}
	if b.state == stateHalfOpen || (b.state == stateClosed && b.fails >= r.bp.Threshold) {
		if b.state == stateClosed {
			r.opens.Inc()
			r.openNow.Inc()
		}
		b.state = stateOpen
		b.openedAt = time.Now()
	}
}

// Retries returns the total number of retry attempts performed (attempts
// beyond each call's first, across all peers).
func (r *Retrier) Retries() uint64 { return r.retries.Value() }

// ConsecutiveFailures returns addr's current consecutive transport
// failure count — the suspicion level the transport layer compares
// against its eviction threshold.
func (r *Retrier) ConsecutiveFailures(addr string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b, ok := r.peers[addr]; ok {
		return b.fails
	}
	return 0
}

// BreakerOpen reports whether addr's breaker is currently open or
// half-open (i.e. the peer is strongly suspected dead).
func (r *Retrier) BreakerOpen(addr string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.peers[addr]
	return ok && b.state != stateClosed
}
