package lockb

import (
	"sync"

	"locka"
	"lockc"
)

// Backward completes the cycle from locka.Forward: C.Mu → A.Mu here,
// A.Mu → C.Mu there. Neither package sees both edges alone — only the
// program-wide graph does.
func Backward(a *locka.A, c *lockc.C) {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	a.Mu.Lock() // want `lock locka\.A\.Mu acquired while lockc\.C\.Mu is held`
	a.Mu.Unlock()
}

type B struct {
	Mu sync.Mutex
}

// A consistent order used everywhere (A before B) is exactly what the
// analyzer asks for — edges exist, no cycle, no finding.
func First(a *locka.A, b *B) {
	a.Mu.Lock()
	defer a.Mu.Unlock()
	b.Mu.Lock()
	b.Mu.Unlock()
}

func Second(a *locka.A, b *B) {
	a.Mu.Lock()
	defer a.Mu.Unlock()
	b.Mu.Lock()
	b.Mu.Unlock()
}

// N takes mu before conn in AB. Spawn holds conn while it starts AB on a
// goroutine of its own, which holds nothing: no conn → mu edge, so no
// cycle and no re-entry.
type N struct {
	mu, conn sync.Mutex
}

func (n *N) AB() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.conn.Lock()
	n.conn.Unlock()
}

func (n *N) Spawn() {
	n.conn.Lock()
	defer n.conn.Unlock()
	go n.AB()
}
