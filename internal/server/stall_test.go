package server

import (
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"kairos/internal/cloud"
	"kairos/internal/models"
	"kairos/internal/sim"
)

// alternate routes waiting queries to the instances in turn, whatever
// their backlog — a policy that keeps routing to an instance that has gone
// silent — at most 64 a round, so a round's dispatches stay a burst.
type alternate struct {
	next int
	out  []sim.Assignment
}

func (*alternate) Name() string { return "alternate" }

func (p *alternate) Assign(_ float64, w []sim.QueryView, in []sim.InstanceView) []sim.Assignment {
	p.out = p.out[:0]
	for _, q := range w[:min(len(w), 64)] {
		p.out = append(p.out, sim.Assignment{Query: q.Index, Instance: p.next % len(in)})
		p.next++
	}
	return p.out
}

// silentInstance is a peer that handshakes as an instance of model and
// then never reads, with a small receive buffer: a stalled instance whose
// socket buffers fill once the sender's buffer has grown to its limit.
func silentInstance(t *testing.T, model string) string {
	t.Helper()
	ln := listenLocal(t)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.(*net.TCPConn).SetReadBuffer(4 << 10)
		if acceptHandshake(conn, cloud.R5nLarge.Name, model) != nil {
			return
		}
		<-stop
	}()
	t.Cleanup(func() {
		ln.Close()
		close(stop)
		<-done
	})
	return ln.Addr().String()
}

// stallSink reports one query's outcome and its wall-clock latency.
type stallSink struct {
	t0  time.Time
	out chan<- stallResult
}

type stallResult struct {
	instance string
	err      error
	wall     time.Duration
}

func (s *stallSink) QueryDone(res QueryResult) {
	s.out <- stallResult{res.Instance, res.Err, time.Since(s.t0)}
}

// TestSilentInstanceStallsOnlyItself: one model, two instances, and a
// policy that keeps routing to both. One instance handshakes and never
// reads again, so its socket buffers fill; the other is healthy. No socket
// write runs on the model's scheduler, so every query dispatched to the
// healthy instance completes within a bound while the silent one's
// buffers are full and its link's writer sits in a blocked write. Once
// the silent link's backlog passes the cap, the link fails, the instance
// is evicted naming the overflow, and what it held is served by the
// healthy one. Close returns within a bound and leaves no goroutine
// behind. (A scheduler that writes its links itself parks on the full
// socket, and the healthy instance's queries wait with it.)
func TestSilentInstanceStallsOnlyItself(t *testing.T) {
	const (
		bound = 5 * time.Second // per query, and for Close
		chunk = 1000            // queries per step, half of them to the silent instance
		limit = 200 * chunk     // ~29 MB of frames to the silent instance: past any socket buffer
	)
	// A model name as long as the wire carries makes each dispatch frame
	// ~290 B, so the silent instance's buffers fill sooner.
	m := models.MustByName("NCF")
	m.Name = strings.Repeat("N", 255)
	healthy, err := NewInstanceServer(cloud.G4dnXlarge.Name, m, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if err := healthy.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { healthy.Close() })
	silentAddr := silentInstance(t, m.Name)

	before := runtime.NumGoroutine()
	ctrl, err := NewController(m.Name, &alternate{}, 1e-6, m.Latency, []string{healthy.Addr(), silentAddr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrl.Close)
	causes := make(chan error, 2)
	ctrl.SetOnInstanceDown(func(_, _, _ string, cause error, release func()) { release(); causes <- cause })
	results := make(chan stallResult, limit)
	submitted, answered := 0, 0
	submit := func() {
		for range chunk {
			ctrl.SubmitTo(m.Name, 8, SubmitOptions{}, &stallSink{t0: time.Now(), out: results})
		}
		submitted += chunk
	}
	// settle waits until every submission is dispatched and every query
	// dispatched to the healthy instance has been answered, each within
	// the bound; it returns the silent instance's link.
	settle := func() *wireConn {
		t.Helper()
		deadline := time.After(2 * bound)
		for {
			var h, s *remoteInstance
			g := ctrl.groups[m.Name]
			g.mu.Lock()
			for _, ri := range g.instances {
				if ri.addr == silentAddr {
					s = ri
				} else {
					h = ri
				}
			}
			waiting, settled := len(g.waiting), h != nil && s != nil &&
				int(h.dispatched+s.dispatched) == submitted && len(h.pending) == 0 && answered == int(h.dispatched)
			g.mu.Unlock()
			if settled && waiting == 0 {
				return s.link.(*wireConn)
			}
			select {
			case r := <-results:
				if r.err != nil || r.instance != cloud.G4dnXlarge.Name {
					t.Fatalf("query ended %+v; only the healthy instance answers", r)
				}
				if r.wall > bound {
					t.Fatalf("a query to the healthy instance took %v, bound %v", r.wall, bound)
				}
				answered++
			case <-deadline:
				t.Fatalf("the healthy instance's queries stalled with the silent one: %d of %d answered, %d waiting",
					answered, submitted, waiting)
			case <-time.After(time.Millisecond):
			}
		}
	}
	// backlog reads what the silent link's writer holds behind its write.
	backlog := func(l *wireConn) int {
		l.w.mu.Lock()
		defer l.w.mu.Unlock()
		return len(l.w.buf)
	}

	// Until the silent instance's socket buffers are full and its link's
	// writer sits in a blocked write with a backlog behind it, the healthy
	// instance serves its half of every step within the bound.
	for {
		submit()
		silent := settle()
		time.Sleep(20 * time.Millisecond) // a writer that can write takes its backlog by now
		if backlog(silent) > 0 {
			break
		}
		if submitted >= limit {
			t.Fatalf("setup: %d queries and the silent instance's buffers never filled", submitted)
		}
	}
	t.Logf("the silent instance's buffers filled after %d queries", submitted)

	// Past the cap the silent link fails, its reader evicts the instance
	// naming the overflow, and everything it held is served by the healthy
	// instance.
	var cause error
	for cause == nil {
		if submitted >= limit {
			t.Fatalf("%d queries and the silent instance was never evicted", submitted)
		}
		submit()
		select {
		case cause = <-causes:
		case <-time.After(100 * time.Millisecond):
		}
	}
	if !errors.Is(cause, errBacklog) {
		t.Fatalf("the silent instance was evicted for %v, want its link's backlog overflow", cause)
	}
	for ; answered < submitted; answered++ {
		select {
		case r := <-results:
			if r.err != nil {
				t.Fatalf("query failed after the eviction: %v", r.err)
			}
		case <-time.After(4 * bound):
			t.Fatalf("%d of %d queries answered after the eviction", answered, submitted)
		}
	}

	closed := make(chan struct{})
	go func() { ctrl.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(bound):
		t.Fatalf("Close did not return within %v", bound)
	}
	for start := time.Now(); runtime.NumGoroutine() > before+2; {
		if time.Since(start) > bound {
			t.Fatalf("%d goroutines after Close, %d before the controller", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
