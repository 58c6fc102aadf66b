package server

import (
	"net"
	"strings"
	"testing"
	"time"

	"kairos/internal/cloud"
	"kairos/internal/models"
)

// TestInstanceServerShutdownDrains: Shutdown must stop accepting new
// connections but serve every fully-received request queued behind the
// one that is mid-service when the drain starts — wherever it is held —
// before the connection goes away. This is what lets kairosd honor
// SIGTERM without dropping queries (exec actuation provider).
func TestInstanceServerShutdownDrains(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	typeName := cloud.R5nLarge.Name
	const batch = 200
	// Scale so one query takes ~80ms of real time: long enough that the
	// drain provably overlaps an executing query.
	scale := 80 / m.Latency(typeName, batch)
	for _, tc := range []struct {
		held     string
		together bool // request 2 is sent in the same write as request 1
	}{
		// The read that returned request 1 already pulled request 2 into
		// the server's read buffer.
		{"in the read buffer", true},
		// Request 2 is sent once request 1 is executing: nobody is reading,
		// so it waits in the kernel's socket buffer, where a read that
		// fails on an expired deadline never looks.
		{"in the socket buffer", false},
	} {
		t.Run("request "+tc.held, func(t *testing.T) {
			t.Parallel()
			s, err := NewInstanceServer(typeName, m, scale)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			addr := s.Addr()
			p := dialPeer(t, addr)
			executing := func() bool {
				if s.mu.TryLock() {
					s.mu.Unlock()
					return false
				}
				return true
			}
			if tc.together {
				p.send(t, Request{ID: 1, Batch: batch}, Request{ID: 2, Batch: batch})
			} else {
				p.send(t, Request{ID: 1, Batch: batch})
			}
			for deadline := time.Now().Add(5 * time.Second); !executing(); {
				if time.Now().After(deadline) {
					t.Fatal("request 1 never started executing")
				}
				time.Sleep(time.Millisecond)
			}
			if !tc.together {
				// Loopback delivers within the write: once send returns, the
				// server's kernel holds request 2.
				p.send(t, Request{ID: 2, Batch: batch})
			}

			done := make(chan error, 1)
			go func() { done <- s.Shutdown(5 * time.Second) }()

			for want := int64(1); want <= 2; want++ {
				rep, err := p.recv()
				if err != nil {
					t.Fatalf("reply %d lost across the drain: %v", want, err)
				}
				if rep.ID != want || rep.Err != "" {
					t.Fatalf("reply %d = %+v", want, rep)
				}
			}
			if err := <-done; err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			// The drained connection is closed by the server.
			if rep, err := p.recv(); err == nil {
				t.Fatalf("connection must close after the drain, got %+v", rep)
			}
			// Nothing new can connect.
			if c, err := net.DialTimeout("tcp", addr, 250*time.Millisecond); err == nil {
				c.Close()
				t.Fatal("listener must refuse connections after Shutdown")
			}
			// Close after Shutdown is a clean no-op.
			if err := s.Close(); err != nil {
				t.Fatalf("close after shutdown: %v", err)
			}
		})
	}
}

// TestInstanceServerShutdownIdleConn: an idle connection (no pending
// request) drains immediately — the deadline sweep pops its blocked read
// and the server exits cleanly within the timeout.
func TestInstanceServerShutdownIdleConn(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	s, err := NewInstanceServer(cloud.R5nLarge.Name, m, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	dialPeer(t, s.Addr())
	// An idle connection (no pending request) drains at once: the deadline
	// sweep pops its blocked read, one look finds the socket empty, and
	// the server exits cleanly.
	if err := s.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("idle-conn drain: %v", err)
	}
}

// TestInstanceServerShutdownTimeoutForceCloses: a drain that cannot
// finish within the timeout (a query still executing) is cut short — the
// lingering connection is force-closed, Shutdown still returns (never
// hangs), and it reports the exceeded drain.
func TestInstanceServerShutdownTimeoutForceCloses(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	typeName := cloud.R5nLarge.Name
	const batch = 200
	// One query takes ~500ms; the drain timeout below is far shorter.
	scale := 500 / m.Latency(typeName, batch)
	s, err := NewInstanceServer(typeName, m, scale)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	p := dialPeer(t, s.Addr())
	p.send(t, Request{ID: 1, Batch: batch})
	time.Sleep(20 * time.Millisecond) // the query is now executing

	start := time.Now()
	err = s.Shutdown(50 * time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "drain exceeded") {
		t.Fatalf("timed-out drain must be reported: %v", err)
	}
	// The executing query still finishes internally (service is not
	// interruptible), but its connection was force-closed at the timeout
	// so the drain is cut to roughly the one in-flight service — Shutdown
	// reports the exceeded drain and returns instead of hanging on a
	// connection that would otherwise keep reading.
	if elapsed := time.Since(start); elapsed >= 5*time.Second {
		t.Fatalf("shutdown took %v; the force-close backstop did not bound the drain", elapsed)
	}
	// The client sees the cut connection, not a reply.
	if rep, err := p.recv(); err == nil {
		t.Fatalf("force-closed connection still delivered %+v", rep)
	}
}
