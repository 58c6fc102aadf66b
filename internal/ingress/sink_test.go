package ingress

import (
	"bufio"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"kairos/internal/cloud"
	"kairos/internal/models"
	"kairos/internal/server"
	"kairos/internal/sim"
)

// withholder is an instance that speaks the wire but answers nothing until
// told to: every request it reads is a query provably in flight.
type withholder struct {
	ln net.Listener

	mu   sync.Mutex
	conn net.Conn
	held []int64
}

func startWithholder(t *testing.T) *withholder {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &withholder{ln: ln}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		var ack server.HelloAck
		if server.WriteFrame(conn, server.Hello{TypeName: cloud.R5nLarge.Name, Model: "NCF", Proto: server.ProtoSession}) != nil ||
			server.ReadFrame(br, &ack) != nil {
			return
		}
		h.mu.Lock()
		h.conn = conn
		h.mu.Unlock()
		var buf []byte
		for {
			p, err := server.ReadRawFrame(br, buf)
			if err != nil {
				return
			}
			buf = p[:0]
			rv, err := server.DecodeRequestView(p)
			if err != nil {
				return
			}
			h.mu.Lock()
			h.held = append(h.held, rv.ID)
			h.mu.Unlock()
		}
	}()
	return h
}

func (h *withholder) holding() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.held)
}

func (h *withholder) hangUp() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.conn != nil {
		h.conn.Close()
	}
}

// release answers everything held, in a shuffled order, in one write.
func (h *withholder) release(t *testing.T) {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	rand.Shuffle(len(h.held), func(i, j int) { h.held[i], h.held[j] = h.held[j], h.held[i] })
	var out []byte
	for _, id := range h.held {
		out, _ = server.AppendReplyFrame(out, server.Reply{ID: id, ServiceMS: 1})
	}
	h.held = nil
	if _, err := h.conn.Write(out); err != nil {
		t.Errorf("withholder: writing replies: %v", err)
	}
}

// startWithheldFront boots withholder ← controller ← front door, and one
// raw client connection past its handshake.
func startWithheldFront(t *testing.T) (*withholder, *server.Controller, *Server, net.Conn, *bufio.Reader) {
	t.Helper()
	h := startWithholder(t)
	m := models.MustByName("NCF")
	ctrl, err := server.NewController(m.Name, &sim.LeastLoaded{}, 1e-6, m.Latency, []string{h.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrl.Close)
	ing, err := New(ctrl, Options{TCPAddr: "127.0.0.1:0", MaxQueue: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ing.Close)
	conn, err := net.Dial("tcp", ing.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	// Registered last, so it runs first: a test that fails with replies
	// still withheld must not leave ing.Close waiting for them. Hanging up
	// has the controller fail what the instance held.
	t.Cleanup(h.hangUp)
	br := bufio.NewReader(conn)
	var hello server.Hello
	if err := server.ReadFrame(br, &hello); err != nil {
		t.Fatal(err)
	}
	if err := server.WriteFrame(conn, server.HelloAck{Proto: server.ProtoSession}); err != nil {
		t.Fatal(err)
	}
	return h, ctrl, ing, conn, br
}

// pipeline writes n queries with ids 1..n down conn without reading.
func pipeline(t *testing.T, conn net.Conn, n int) {
	t.Helper()
	var out []byte
	for id := 1; id <= n; id++ {
		out, _ = server.AppendRequestFrame(out, server.Request{ID: int64(id), Model: "NCF", Batch: 8})
	}
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
}

// readReplies reads n replies and checks ids 1..n each came back once,
// without error.
func readReplies(t *testing.T, conn net.Conn, br *bufio.Reader, n int) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	seen := make([]bool, n+1)
	var buf []byte
	for i := 0; i < n; i++ {
		p, err := server.ReadRawFrame(br, buf)
		if err != nil {
			t.Fatalf("reply %d of %d: %v", i+1, n, err)
		}
		buf = p[:0]
		rep, err := server.DecodeReplyFrame(p)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Err != "" || rep.ID < 1 || rep.ID > int64(n) || seen[rep.ID] {
			t.Fatalf("reply %d of %d is %+v (seen before: %v)", i+1, n, rep, rep.ID >= 1 && rep.ID <= int64(n) && seen[rep.ID])
		}
		seen[rep.ID] = true
	}
}

// TestNoGoroutinePerInflightQuery: an admitted binary-TCP query in flight
// is a pooled sink and a controller queue entry, not a parked goroutine.
// 2000 of them pipelined on one connection, their replies withheld, leave
// the process within a constant of its idle goroutine count (the waiter
// pool this replaced held one each); released in a shuffled order, every
// reply arrives once and the books balance. Not parallel: it counts the
// process's goroutines.
func TestNoGoroutinePerInflightQuery(t *testing.T) {
	const n = 2000
	h, ctrl, _, conn, br := startWithheldFront(t)
	idle := runtime.NumGoroutine()
	pipeline(t, conn, n)
	waitFor(t, "every query admitted and dispatched", func() bool {
		return ctrl.Stats().Ingress["NCF"].Queue == n && h.holding() == n
	})
	if got := runtime.NumGoroutine(); got > idle+8 {
		t.Fatalf("%d queries in flight: %d goroutines, %d when idle", n, got, idle)
	}
	h.release(t)
	readReplies(t, conn, br, n)
	waitFor(t, "the books to balance", func() bool { return ctrl.Stats().Ingress["NCF"].Queue == 0 })
	st := ctrl.Stats()
	if is := st.Ingress["NCF"]; st.Submitted != n || st.Completed != n || st.Failed != 0 ||
		is.Submitted != n || is.TCP != n || is.Completed != n || is.Failed != 0 || is.Rejected != 0 {
		t.Fatalf("conservation: controller %d/%d/%d, ingress %+v", st.Submitted, st.Completed, st.Failed, is)
	}
}

// TestIngressCloseWaitsForSinks: Close with admitted queries whose replies
// have not even been produced yet holds the connection open until their
// sinks have fired — each sink releases the connection's in-flight count —
// and every reply is on the wire before the connection closes.
func TestIngressCloseWaitsForSinks(t *testing.T) {
	t.Parallel()
	const n = 200
	h, _, ing, conn, br := startWithheldFront(t)
	pipeline(t, conn, n)
	waitFor(t, "every query dispatched", func() bool { return h.holding() == n })
	closed := make(chan struct{})
	go func() {
		ing.Close()
		close(closed)
	}()
	<-ing.closed // Close has begun; the replies do not exist yet
	h.release(t)
	readReplies(t, conn, br, n)
	if _, err := br.ReadByte(); !errors.Is(err, io.EOF) {
		t.Fatalf("after the last reply: %v, want the connection closed", err)
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return once every reply was delivered")
	}
}
