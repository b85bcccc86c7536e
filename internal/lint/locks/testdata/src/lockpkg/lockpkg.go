package lockpkg

import (
	"sync"
	"time"

	"wire"
)

type node struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	locks [4]sync.Mutex
	succ  string
	c     wire.Caller
}

func (n *node) bad(req wire.Request) {
	n.mu.Lock()
	n.c.Call(n.succ, req, time.Second) // want `RPC n\.c\.Call while "n\.mu" is held`
	n.mu.Unlock()
}

func (n *node) deferBad(req wire.Request) (wire.Response, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.c.Call(n.succ, req, time.Second) // want `RPC n\.c\.Call while "n\.mu" is held`
}

func (n *node) good(req wire.Request) (wire.Response, error) {
	n.mu.Lock()
	addr := n.succ
	n.mu.Unlock()
	return n.c.Call(addr, req, time.Second)
}

func (n *node) rlockBad(req wire.Request) {
	n.rw.RLock()
	defer n.rw.RUnlock()
	n.c.Call(n.succ, req, time.Second) // want `RPC n\.c\.Call while "n\.rw" is held`
}

func (n *node) earlyUnlock(req wire.Request) (wire.Response, error) {
	n.mu.Lock()
	if n.succ == "" {
		n.mu.Unlock()
		return n.c.Call("seed", req, time.Second) // unlocked on this path
	}
	addr := n.succ
	n.mu.Unlock()
	return n.c.Call(addr, req, time.Second)
}

func (n *node) nestedBad(req wire.Request) {
	n.mu.Lock()
	if n.succ != "" {
		n.c.Call(n.succ, req, time.Second) // want `RPC n\.c\.Call while "n\.mu" is held`
	}
	n.mu.Unlock()
}

// A goroutine spawned under the lock runs without it: not flagged.
func (n *node) goroutineOK(req wire.Request) {
	n.mu.Lock()
	done := make(chan struct{})
	go func() {
		n.c.Call("x", req, time.Second)
		close(done)
	}()
	n.mu.Unlock()
	<-done
}

// A call spawned under the lock runs without it: not flagged.
func (n *node) goCallOK(req wire.Request) {
	n.mu.Lock()
	go n.c.Call(n.succ, req, time.Second)
	n.mu.Unlock()
}

func use(wire.Response, error) {}

// The spawned call's arguments are evaluated by the spawner, under the
// lock: flagged.
func (n *node) goArgBad(req wire.Request) {
	n.mu.Lock()
	go use(n.c.Call(n.succ, req, time.Second)) // want `RPC n\.c\.Call while "n\.mu" is held`
	n.mu.Unlock()
}

// Helpers that forward a wire.Request count as RPC-reaching too.
func (n *node) forward(addr string, req wire.Request) {
	n.c.Call(addr, req, time.Second)
}

func (n *node) helperBad(req wire.Request) {
	n.mu.Lock()
	n.forward(n.succ, req) // want `RPC n\.forward while "n\.mu" is held`
	n.mu.Unlock()
}

// Two locks held: one report per lock, key order deterministic.
func (n *node) doubleBad(req wire.Request) {
	n.mu.Lock()
	n.rw.Lock()
	n.c.Call(n.succ, req, time.Second) // want `while "n\.mu" is held` `while "n\.rw" is held`
	n.rw.Unlock()
	n.mu.Unlock()
}

// A lock no declaration names (an element of an array of mutexes) is
// tracked by its source text within the function.
func (n *node) indexBad(req wire.Request, i int) {
	n.locks[i].Lock()
	n.c.Call(n.succ, req, time.Second) // want `while "n\.locks\[i\]" is held`
	n.locks[i].Unlock()
}

// Calls through a function value are resolved from the expression type.
func (n *node) funcValueBad(req wire.Request, send func(string, wire.Request) error) {
	n.mu.Lock()
	send(n.succ, req) // want `RPC send while "n\.mu" is held`
	n.mu.Unlock()
}

// *Locked helpers run under the caller's lock by convention and touch
// no network even though their signatures carry a Request.
func (n *node) serveLocked(req wire.Request) string { return n.succ }

func (n *node) dispatchOK(req wire.Request) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.serveLocked(req)
}

// An escape hatch with a reason is honored.
func (n *node) allowed(req wire.Request) {
	n.mu.Lock()
	n.c.Call(n.succ, req, time.Second) //lint:allow lockrpc startup path, no concurrent readers yet
	n.mu.Unlock()
}
