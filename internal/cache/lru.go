package cache

import (
	"container/list"
	"sync"

	"repro/internal/id"
)

// lru is one peer's key → owner index bindings, evicting the least
// recently used once capacity (>= 1) is reached. Safe for concurrent use.
type lru struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recent; values are binding
	items map[id.ID]*list.Element
}

type binding struct {
	key   id.ID
	owner int
}

func newLRU(capacity int) *lru {
	return &lru{cap: capacity, order: list.New(), items: make(map[id.ID]*list.Element, capacity)}
}

// Get returns the owner bound to key and marks it most recently used.
func (c *lru) Get(key id.ID) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		return 0, false
	}
	c.order.MoveToFront(e)
	return e.Value.(binding).owner, true
}

// Put binds key to owner as the most recently used binding, evicting the
// least recently used one when the cache is full.
func (c *lru) Put(key id.ID, owner int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		e.Value = binding{key, owner}
		c.order.MoveToFront(e)
		return
	}
	if c.order.Len() >= c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(binding).key)
	}
	c.items[key] = c.order.PushFront(binding{key, owner})
}

// Len returns the number of bindings held.
func (c *lru) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
