package soak

import (
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// proxy interposes one TCP backend: every controller connection to the
// instance flows through it, so the harness can perturb the wire without
// touching either endpoint. Three knobs:
//
//   - delay: each forwarded chunk sleeps first (slow network);
//   - stall: forwarding pauses entirely — bytes stay queued, nothing a
//     live endpoint sent is lost, and lifting the stall resumes the stream
//     intact (a transient partition as TCP actually experiences it); an
//     endpoint that dies during the stall loses what it had sent into it;
//   - cut: every live connection closes and new ones are refused — the
//     controller sees the instance die even though the backend is healthy
//     (a hard partition; the fault path reaps the unreachable instance).
type proxy struct {
	backend string
	ln      net.Listener

	delayNS atomic.Int64
	stalled atomic.Bool
	isCut   atomic.Bool

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

func newProxy(backend string) (*proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &proxy{backend: backend, ln: ln, conns: make(map[net.Conn]struct{})}
	go p.acceptLoop()
	return p, nil
}

// addr is the controller-facing address.
func (p *proxy) addr() string { return p.ln.Addr().String() }

func (p *proxy) acceptLoop() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		if p.isCut.Load() {
			conn.Close()
			continue
		}
		go p.serve(conn)
	}
}

func (p *proxy) serve(client net.Conn) {
	backend, err := net.Dial("tcp", p.backend)
	if err != nil {
		client.Close()
		return
	}
	if !p.track(client) || !p.track(backend) {
		client.Close()
		backend.Close()
		return
	}
	done := make(chan struct{}, 2)
	go p.pipe(backend, client, done)
	go p.pipe(client, backend, done)
	<-done // either direction failing tears the pair down
	client.Close()
	backend.Close()
	<-done
	p.untrack(client)
	p.untrack(backend)
}

// pipe forwards src to dst, honoring the delay and stall knobs. During a
// stall it keeps reading src, polling so a quiet src cannot hide the lift,
// but forwards nothing: what it holds goes out intact once the stall
// lifts, and is dropped if src ends first. An instance that dies behind a
// partition takes its unsent replies with it, so the far side sees the
// death, not a late drain. Past one buffer the kernel holds the rest.
func (p *proxy) pipe(dst, src net.Conn, done chan<- struct{}) {
	defer func() { done <- struct{}{} }()
	buf := make([]byte, 32<<10)
	held, polling := 0, false
	for {
		n, err := src.Read(buf[held:])
		held += n
		stalled := p.stalled.Load()
		if held > 0 && !stalled {
			if d := p.delayNS.Load(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			if _, werr := dst.Write(buf[:held]); werr != nil {
				return
			}
			held = 0
		}
		if err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
			return
		}
		switch {
		case stalled && held == len(buf):
			time.Sleep(2 * time.Millisecond)
		case stalled:
			polling = true
			src.SetReadDeadline(time.Now().Add(2 * time.Millisecond))
		case polling:
			polling = false
			src.SetReadDeadline(time.Time{})
		}
	}
}

func (p *proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// setDelay adds d of one-way latency to every forwarded chunk.
func (p *proxy) setDelay(d time.Duration) { p.delayNS.Store(int64(d)) }

// setStall pauses (true) or resumes (false) forwarding in both directions.
func (p *proxy) setStall(on bool) { p.stalled.Store(on) }

// cut force-closes every live connection and refuses new ones.
func (p *proxy) cut() {
	p.isCut.Store(true)
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

// close tears the proxy down entirely.
func (p *proxy) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	p.ln.Close()
	for _, c := range conns {
		c.Close()
	}
}
