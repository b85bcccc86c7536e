package transport

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/wire"
)

// Prober estimates the one-way latency in milliseconds to a remote node.
// The distributed binning scheme only needs approximate values (paper
// §2.2), so implementations trade accuracy for convenience. via is the
// probing node's connection pool itself — beneath its retrier, breaker,
// metrics wrapper and Config.WrapCaller — so a probe is one plain
// exchange: never retried, invisible to injected faults, not counted as
// an RPC, and on the connection the node's later calls to that address
// reuse. The context bounds the whole probe (all samples); each sample
// is additionally capped by the implementation's per-probe timeout.
type Prober interface {
	Latency(ctx context.Context, via wire.Caller, addr string) (float64, error)
}

// RTTProber measures real round-trip times with ping requests and returns
// the minimum over Samples probes, halved. The first sample may pay the
// pool's dial; the minimum does not.
type RTTProber struct {
	Samples int
	Timeout time.Duration
}

// Latency implements Prober.
func (p *RTTProber) Latency(ctx context.Context, via wire.Caller, addr string) (float64, error) {
	samples := p.Samples
	if samples <= 0 {
		samples = 3
	}
	best := math.Inf(1)
	for i := 0; i < samples; i++ {
		start := time.Now()
		if _, err := probe(ctx, via, addr, wire.TPing, p.Timeout); err != nil {
			return 0, fmt.Errorf("transport: ping %s: %w", addr, err)
		}
		if rtt := time.Since(start); rtt.Seconds()*1000 < best {
			best = rtt.Seconds() * 1000
		}
	}
	return best / 2, nil
}

// probe performs one exchange bounded by timeout (0 = 2s) within the
// caller's context.
func probe(ctx context.Context, via wire.Caller, addr string, t wire.MsgType, timeout time.Duration) (wire.Response, error) {
	if timeout == 0 {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	return via.Call(ctx, addr, wire.Request{Type: t})
}

// VirtualProber places nodes on a synthetic 2-D plane: latency is the
// Euclidean distance between this node's coordinates and the remote
// node's published coordinates (fetched once per probe via get_info).
// Deterministic and sleep-free, it gives tests and demos full control
// over the binning structure.
type VirtualProber struct {
	Self    [2]float64
	Timeout time.Duration
}

// Latency implements Prober.
func (p *VirtualProber) Latency(ctx context.Context, via wire.Caller, addr string) (float64, error) {
	resp, err := probe(ctx, via, addr, wire.TGetInfo, p.Timeout)
	if err != nil {
		return 0, fmt.Errorf("transport: get_info %s: %w", addr, err)
	}
	dx := p.Self[0] - resp.Coord[0]
	dy := p.Self[1] - resp.Coord[1]
	return math.Hypot(dx, dy), nil
}
