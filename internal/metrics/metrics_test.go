package metrics

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("requests_total", "Total requests.")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	g := r.NewGauge("temperature", "Current temperature.")
	g.Set(1.5)
	g.Add(2)
	g.Dec()
	if got := g.Value(); got != 2.5 {
		t.Errorf("gauge = %v, want 2.5", got)
	}
}

func TestVecCurrying(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("rpc_requests_total", "RPCs by type.", "type", []string{"get", "ping"})
	ping := v.With("ping")
	ping.Inc()
	ping.Inc()
	v.With("get").Inc()
	if v.With("ping") != ping {
		t.Error("With returned a different child for the same labels")
	}
	if got := v.With("ping").Value(); got != 2 {
		t.Errorf("ping = %d, want 2", got)
	}
	if got := v.With("get").Value(); got != 1 {
		t.Errorf("get = %d, want 1", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat", "Latency.", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{2, 1, 1, 1} // (..1], (1..2], (2..4], overflow
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 5 {
		t.Errorf("count = %d, want 5", s.Count)
	}
	if s.Sum != 106 {
		t.Errorf("sum = %v, want 106", s.Sum)
	}
}

func TestExposition(t *testing.T) {
	r := NewRegistry()
	r.NewCounterVec("rpc_requests_total", "RPCs by type.", "type", []string{"find_closest"}).With("find_closest").Add(7)
	r.NewGauge("up", "Liveness.").Set(1)
	r.NewHistogram("rpc_latency_seconds", "Call latency.", []float64{0.1, 1}).Observe(0.05)
	r.NewCounterFunc("cache_hits_total", "Cache hits.", func() float64 { return 3 })

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE rpc_requests_total counter",
		`rpc_requests_total{type="find_closest"} 7`,
		"# TYPE up gauge",
		"up 1",
		`rpc_latency_seconds_bucket{le="0.1"} 1`,
		`rpc_latency_seconds_bucket{le="+Inf"} 1`,
		"rpc_latency_seconds_sum 0.05",
		"rpc_latency_seconds_count 1",
		"cache_hits_total 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Families must appear in sorted order.
	if strings.Index(out, "cache_hits_total") > strings.Index(out, "up ") {
		t.Error("families not sorted by name")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.NewCounterVec("odd", "", "k", []string{"a\"b\\c\nd"}).At(0).Inc()
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `odd{k="a\"b\\c\nd"} 1`) {
		t.Errorf("bad escaping:\n%s", b.String())
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("hits_total", "").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	buf := make([]byte, 1<<12)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "hits_total 1") {
		t.Errorf("handler output:\n%s", buf[:n])
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.NewCounter("x_total", "")
}

// TestConcurrentUpdates hammers one counter, one gauge and one histogram
// from 16 goroutines and asserts exact totals — run under -race this is
// the concurrency-safety regression test for the atomic fast paths.
func TestConcurrentUpdates(t *testing.T) {
	const goroutines = 16
	const perG = 4998 // divisible by 3 so the bucket math below is exact
	r := NewRegistry()
	c := r.NewCounterVec("c_total", "", "who", []string{"worker"})
	g := r.NewGauge("g", "")
	h := r.NewHistogram("h", "", []float64{0.5, 1.5, 2.5})

	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := c.With("worker") // all goroutines share one child
			for i := 0; i < perG; i++ {
				mine.Inc()
				g.Add(1)
				h.Observe(float64(i % 3)) // 0, 1, 2 round-robin
			}
		}(w)
	}
	wg.Wait()

	const total = goroutines * perG
	if got := c.With("worker").Value(); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	if got := g.Value(); got != float64(total) {
		t.Errorf("gauge = %v, want %d", got, total)
	}
	s := h.Snapshot()
	if s.Count != total {
		t.Errorf("histogram count = %d, want %d", s.Count, total)
	}
	third := uint64(total / 3)
	for i, w := range []uint64{third, third, third, 0} {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	// Values 0,1,2 in equal proportion have mean 1, so sum == count.
	if want := float64(total); math.Abs(s.Sum-want) > 1e-6 {
		t.Errorf("histogram sum = %v, want %v", s.Sum, want)
	}
}

// TestCounterVec: a family's children are created at registration and
// exposed at 0 from then on, in label order; With and At name the same
// child; With refuses a value outside the set; and two registries share
// the caller's value slice instead of copying it.
func TestCounterVec(t *testing.T) {
	values := []string{"put_ring_table", "put", "a b", "a"}
	r := NewRegistry()
	v := r.NewCounterVec("rpc_requests_total", "By type.", "type", values)
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP rpc_requests_total By type.
# TYPE rpc_requests_total counter
rpc_requests_total{type="a b"} 0
rpc_requests_total{type="a"} 0
rpc_requests_total{type="put"} 0
rpc_requests_total{type="put_ring_table"} 0
`
	if b.String() != want {
		t.Errorf("fresh exposition:\n%s\nwant:\n%s", b.String(), want)
	}
	for i, val := range values {
		if v.With(val) != v.At(i) {
			t.Errorf("With(%q) and At(%d) are different children", val, i)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("With on an unregistered value did not panic")
			}
		}()
		v.With("zz")
	}()
	other := NewRegistry().NewCounterVec("rpc_requests_total", "By type.", "type", values)
	if unsafe.SliceData(v.values) != unsafe.SliceData(other.values) {
		t.Error("two registries hold two copies of one value set")
	}
}

// TestHistogramSharesBounds: a histogram keeps its caller's bounds
// instead of a copy.
func TestHistogramSharesBounds(t *testing.T) {
	buckets := []float64{1, 2}
	h := NewRegistry().NewHistogram("lat", "", buckets)
	if &h.uppers[0] != &buckets[0] {
		t.Error("the histogram copied its bucket bounds")
	}
}
