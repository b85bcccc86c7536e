package wire

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// decodeNext encodes a reply naming addr as its next hop into buf and
// decodes it, returning the buffer and the decoded address.
func decodeNext(buf []byte, addr string) ([]byte, string) {
	buf, _ = Binary{}.AppendResponse(buf[:0], &Response{OK: true, Next: Peer{Addr: addr, ID: [20]byte{1}}})
	resp, err := Binary{}.DecodeResponse(buf)
	if err != nil {
		return buf, err.Error()
	}
	return buf, resp.Next.Addr
}

// TestInternBounded: a flood of distinct addresses decodes to exactly
// what was sent and leaves behind no more than the table's worst case,
// whatever its length; an address too long for the table is decoded
// afresh each time, one short enough is shared.
func TestInternBounded(t *testing.T) {
	const worstCase = internSlots * (16 + internMaxLen)
	var buf []byte
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 100_000; i++ {
		addr := fmt.Sprintf("10.%d.%d.%d:%d", i>>16, i>>8&0xff, i&0xff, 9000+i%7)
		var got string
		if buf, got = decodeNext(buf, addr); got != addr {
			t.Fatalf("decoded %q, sent %q", got, addr)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("100,000 distinct addresses retained %d B (worst case %d B)", retained, worstCase)
	if retained > worstCase {
		t.Errorf("decoding retained %d B, over the table's worst case of %d B", retained, worstCase)
	}

	for _, n := range []int{internMaxLen, internMaxLen + 1} {
		addr := strings.Repeat("h", n-5) + ":9000"
		_, first := decodeNext(nil, addr)
		_, second := decodeNext(nil, addr)
		if first != addr || second != addr {
			t.Fatalf("%d-byte address decoded as %q and %q", n, first, second)
		}
		shared := unsafe.StringData(first) == unsafe.StringData(second)
		if want := n <= internMaxLen; shared != want {
			t.Errorf("%d-byte address: two decodes share memory = %v, want %v", n, shared, want)
		}
	}
}

// collidingAddrs returns two distinct addresses that share a slot.
func collidingAddrs() (string, string) {
	seen := map[uint32]string{}
	for i := 0; ; i++ {
		addr := fmt.Sprintf("n%d:9000", i)
		slot := internSlot([]byte(addr))
		if other, ok := seen[slot]; ok {
			return other, addr
		}
		seen[slot] = addr
	}
}

// TestInternCollision: two addresses that evict each other from their
// shared slot still decode to themselves, every time.
func TestInternCollision(t *testing.T) {
	a, b := collidingAddrs()
	var buf []byte
	var got string
	for i := 0; i < 100; i++ {
		want := a
		if i%2 == 1 {
			want = b
		}
		if buf, got = decodeNext(buf, want); got != want {
			t.Fatalf("decode %d: got %q, want %q (%q and %q share a slot)", i, got, want, a, b)
		}
	}
}

// TestInternConcurrentDecode: goroutines decoding replies whose addresses
// fight over the same slots each get their own address back. Its point is
// the race detector: the slots are shared by every connection's reader.
func TestInternConcurrentDecode(t *testing.T) {
	a, b := collidingAddrs()
	addrs := []string{a, b, "127.0.0.1:24107", "127.0.0.1:24103", strings.Repeat("x", internMaxLen+1)}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []byte
			var got string
			for i := 0; i < 500; i++ {
				want := addrs[(g+i)%len(addrs)]
				if buf, got = decodeNext(buf, want); got != want {
					t.Errorf("goroutine %d decoded %q, want %q", g, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
