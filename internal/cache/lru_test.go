package cache

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/id"
)

func TestLRU(t *testing.T) {
	c := newLRU(2)
	k1, k2, k3 := id.HashString("1"), id.HashString("2"), id.HashString("3")
	c.Put(k1, 10)
	c.Put(k2, 20)
	if v, ok := c.Get(k1); !ok || v != 10 {
		t.Fatal("k1 missing")
	}
	c.Put(k3, 30) // evicts k2 (k1 was touched)
	if _, ok := c.Get(k2); ok {
		t.Error("k2 should have been evicted")
	}
	if _, ok := c.Get(k1); !ok {
		t.Error("k1 should survive")
	}
	c.Put(k1, 99) // update in place
	if v, _ := c.Get(k1); v != 99 {
		t.Error("update lost")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
}

// TestConcurrentGetPut is for the race detector: Overlay.Lookup shares a
// peer's cache between lookups running on many goroutines.
func TestConcurrentGetPut(t *testing.T) {
	c := newLRU(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := id.HashString(fmt.Sprint((g + i) % 40))
				if v, ok := c.Get(k); ok && v != (g+i)%40 {
					t.Errorf("key %d bound to %d", (g+i)%40, v)
				}
				c.Put(k, (g+i)%40)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Errorf("cache grew to %d past capacity 16", c.Len())
	}
}
