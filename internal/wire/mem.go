package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrConnRefused is wrapped (with %w) by Dial failures against closed
// or never-registered addresses, so callers match the condition with
// errors.Is instead of scraping the message text.
var ErrConnRefused = errors.New("connection refused")

// MemNet is an in-process transport: a registry of named listeners whose
// connections are synchronous in-memory pipes (memConn). It exists for the
// property-based invariant harness (internal/simcheck), which needs two
// things TCP loopback cannot give it:
//
//   - Deterministic addresses. A live node's identifier is derived from
//     its address, so ephemeral ports would place nodes differently on
//     the ring every run — and a shrunk failing program would stop
//     failing on replay. MemNet addresses are chosen names ("n0", "n1"),
//     identical in every run.
//   - Fail-fast dead peers. Dialing a closed MemNet listener errors
//     immediately instead of waiting out a kernel timeout, so fault
//     scenarios execute at memory speed.
//
// One MemNet is one isolated network: two harnesses in the same process
// never see each other's listeners.
type MemNet struct {
	mu        sync.Mutex
	listeners map[string]*memListener
}

// NewMemNet creates an empty in-process network.
func NewMemNet() *MemNet {
	return &MemNet{listeners: make(map[string]*memListener)}
}

// memAddr is the net.Addr of an in-memory endpoint.
type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

// memListener implements net.Listener over a channel of connection ends.
type memListener struct {
	net    *MemNet
	name   string
	accept chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.closed:
		return nil, fmt.Errorf("memnet: listener %s closed", l.name)
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() {
		close(l.closed)
		l.net.mu.Lock()
		if l.net.listeners[l.name] == l {
			delete(l.net.listeners, l.name)
		}
		l.net.mu.Unlock()
	})
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr(l.name) }

// Listen registers a listener under the given name, which doubles as its
// address. The name must be unused.
func (m *MemNet) Listen(name string) (net.Listener, error) {
	if name == "" {
		return nil, fmt.Errorf("memnet: empty listener name")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.listeners[name]; ok {
		return nil, fmt.Errorf("memnet: address %s already in use", name)
	}
	l := &memListener{
		net:    m,
		name:   name,
		accept: make(chan net.Conn),
		closed: make(chan struct{}),
	}
	m.listeners[name] = l
	return l, nil
}

// Dial connects to a registered listener, handing it the server end of a
// fresh connection. It is a DialFunc. A dead (closed or never-registered)
// address fails immediately.
func (m *MemNet) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	m.mu.Lock()
	l, ok := m.listeners[addr]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("memnet: connect %s: %w", addr, ErrConnRefused)
	}
	client, server := newMemConnPair(addr)
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case l.accept <- server:
		return client, nil
	case <-l.closed:
		client.Close()
		server.Close()
		return nil, fmt.Errorf("memnet: connect %s: %w", addr, ErrConnRefused)
	case <-timer:
		client.Close()
		server.Close()
		return nil, fmt.Errorf("memnet: connect %s: accept queue timeout", addr)
	}
}
