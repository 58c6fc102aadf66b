package server

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// ConnTracker is the serving side of the wire for every listener (the
// instance server and the ingress front-end): the one accept loop (Serve),
// the one serving-side handshake (Greet, handshake.go) and the one
// graceful drain (Drain). It tracks live connections so a drain can pop
// their blocked readers with expired read deadlines — fully-received
// buffered frames keep being served because bufio satisfies those reads
// without touching the socket — and force-close whatever remains once a
// drain deadline passes. The subtle ordering (a connection registered, or
// a deadline armed, after the sweep must start expired, or it would sleep
// through the drain) lives here once.
type ConnTracker struct {
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	draining bool
}

// Serve runs ln's accept loop on its own goroutine and each accepted
// connection's handler on another, tracked for the handler's life and
// closed once it returns. Both goroutines count in wg, so once ln is
// closed, waiting on wg waits out every handler.
func (t *ConnTracker) Serve(ln net.Listener, wg *sync.WaitGroup, handler func(net.Conn)) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				defer t.track(conn)()
				handler(conn)
			}()
		}
	}()
}

// track registers a live connection and returns its untrack func. If the
// drain sweep already ran, the connection starts with an expired read
// deadline so it serves only what is already buffered.
func (t *ConnTracker) track(conn net.Conn) (untrack func()) {
	t.mu.Lock()
	if t.conns == nil {
		t.conns = make(map[net.Conn]struct{})
	}
	t.conns[conn] = struct{}{}
	if t.draining {
		conn.SetReadDeadline(time.Now())
	}
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
	}
}

// setReadDeadline arms conn's read deadline at d — or, once the drain
// sweep has run, expires it: nothing armed after a sweep can undo it.
func (t *ConnTracker) setReadDeadline(conn net.Conn, d time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.draining {
		d = time.Now()
	}
	conn.SetReadDeadline(d)
}

// Drain is the one graceful stop, run once the listeners are closed: it
// marks the tracker draining and expires every live connection's read
// deadline, waits up to timeout for wg, then force-closes whatever is left
// and waits again. The error says the backstop fired.
func (t *ConnTracker) Drain(timeout time.Duration, wg *sync.WaitGroup) error {
	t.mu.Lock()
	t.draining = true
	t.mu.Unlock()
	now := time.Now()
	for _, conn := range t.live() {
		conn.SetReadDeadline(now)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		t.closeAll()
		<-done
		return fmt.Errorf("server: drain exceeded %v; connections force-closed", timeout)
	}
}

// closeAll force-closes every still-tracked connection — the drain
// backstop, and an instance's Kill.
func (t *ConnTracker) closeAll() {
	for _, conn := range t.live() {
		conn.Close()
	}
}

// live snapshots the tracked connections.
func (t *ConnTracker) live() []net.Conn {
	t.mu.Lock()
	defer t.mu.Unlock()
	conns := make([]net.Conn, 0, len(t.conns))
	for conn := range t.conns {
		conns = append(conns, conn)
	}
	return conns
}
