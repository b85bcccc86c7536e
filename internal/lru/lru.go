// Package lru is the one fixed-capacity least-recently-used map both
// location caches are built on: the simulator's per-peer key→owner caches
// (internal/cache) and the live node's verified owner hints
// (transport.Config.LookupCache). It is a leaf — it knows identifiers and
// nothing else — so the live stack does not import the oracle to get it.
package lru

import (
	"container/list"
	"sync"

	"repro/internal/id"
)

// Cache maps identifiers to values, evicting the least recently used
// binding once capacity is reached. Safe for concurrent use.
type Cache[V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recent; values are entry[V]
	items map[id.ID]*list.Element
}

type entry[V any] struct {
	key id.ID
	val V
}

// New returns an empty cache holding at most capacity bindings
// (capacity >= 1).
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{cap: capacity, order: list.New(), items: make(map[id.ID]*list.Element, capacity)}
}

// Get returns the value bound to key and marks it most recently used.
func (c *Cache[V]) Get(key id.ID) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(e)
	return e.Value.(entry[V]).val, true
}

// Put binds key to val as the most recently used entry, evicting the
// least recently used one when the cache is full.
func (c *Cache[V]) Put(key id.ID, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		e.Value = entry[V]{key, val}
		c.order.MoveToFront(e)
		return
	}
	if c.order.Len() >= c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(entry[V]).key)
	}
	c.items[key] = c.order.PushFront(entry[V]{key, val})
}

// Remove drops key's binding, if any.
func (c *Cache[V]) Remove(key id.ID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		c.order.Remove(e)
		delete(c.items, key)
	}
}

// Len returns the number of bindings held.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
