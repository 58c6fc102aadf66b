package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitFailed waits, within a bound, for w to fail and returns its failure.
func waitFailed(t *testing.T, w *Writer) error {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := w.Cause(nil); err != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("the writer never failed")
	return nil
}

// deadlineConn is a connection whose every write runs into its deadline,
// recording the deadline it was given.
type deadlineConn struct {
	net.Conn
	mu       sync.Mutex
	deadline time.Time
	closed   bool
}

func (c *deadlineConn) SetWriteDeadline(d time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deadline = d
	return nil
}

func (c *deadlineConn) Write([]byte) (int, error) { return 0, os.ErrDeadlineExceeded }

func (c *deadlineConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

// TestWriterFailureIsSticky: every way a Writer can fail — a write error,
// the write deadline, a backlog over the cap — is sticky, drops what was
// queued, closes the connection so its reader ends, and is what Cause
// names in place of the reader's own error. Close joins the writer
// goroutine in every case.
func TestWriterFailureIsSticky(t *testing.T) {
	t.Parallel()
	readErr := errors.New("the reader's own error")

	t.Run("write error", func(t *testing.T) {
		t.Parallel()
		c1, c2 := net.Pipe()
		c2.Close() // every write on c1 now fails
		w := NewWriter(c1)
		defer w.Close()
		if err := w.QueueReply(Reply{ID: 1}); err != nil {
			t.Fatalf("queueing must not touch the socket: %v", err)
		}
		w.Kick()
		err := waitFailed(t, w)
		if !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("failure %v, want the write's error", err)
		}
		if got := w.QueueReply(Reply{ID: 2}); got != err {
			t.Fatalf("queue after the failure returned %v, want the sticky %v", got, err)
		}
		if got := w.Cause(readErr); got != err {
			t.Fatalf("Cause names %v, want the write failure %v", got, err)
		}
		if _, rerr := c1.Read(make([]byte, 1)); !errors.Is(rerr, io.ErrClosedPipe) {
			t.Fatalf("the failed writer left its connection open: read returned %v", rerr)
		}
	})

	t.Run("write deadline", func(t *testing.T) {
		t.Parallel()
		conn := &deadlineConn{}
		w := NewWriter(conn)
		defer w.Close()
		before := time.Now()
		w.QueueRequest(Request{ID: 1, Model: "NCF", Batch: 1})
		w.Kick()
		err := waitFailed(t, w)
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("failure %v, want the deadline's", err)
		}
		conn.mu.Lock()
		deadline, closed := conn.deadline, conn.closed
		conn.mu.Unlock()
		if deadline.Before(before.Add(WriteTimeout)) || deadline.After(time.Now().Add(WriteTimeout)) {
			t.Fatalf("write ran under deadline %v, want now + %v", deadline, WriteTimeout)
		}
		if !closed {
			t.Fatal("a write past its deadline left the connection open")
		}
		if w.QueueRequest(Request{ID: 2}) != err {
			t.Fatal("the deadline's failure is not sticky")
		}
	})

	t.Run("backlog over the cap", func(t *testing.T) {
		t.Parallel()
		c1, c2 := net.Pipe() // nobody reads c2: the peer has stopped reading
		defer c2.Close()
		w := NewWriter(c1)
		w.QueueReply(Reply{ID: 0})
		w.Kick() // the writer takes this frame and blocks in Write for good
		rep := Reply{Err: strings.Repeat("e", 1000)}
		var err error
		queued := 0
		for queued <= 2*maxBacklog && err == nil {
			rep.ID++
			err = w.QueueReply(rep)
			queued += 4 + replyFixed + len(rep.Err)
		}
		if !errors.Is(err, errBacklog) {
			t.Fatalf("after %d bytes the writer says %v, want the backlog cap", queued, err)
		}
		if queued <= maxBacklog {
			t.Fatalf("failed at %d bytes, under the %d-byte cap", queued, maxBacklog)
		}
		if w.QueueReply(Reply{ID: 1}) != err || w.Cause(readErr) != err {
			t.Fatal("the overflow is not sticky")
		}
		done := make(chan struct{})
		go func() { w.Close(); close(done) }()
		select {
		case <-done: // the overflow closed the conn, which failed the blocked write
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not return: the overflow did not unblock the writer")
		}
	})
}

// TestWriterCloseDrains: frames queued and never kicked still reach the
// peer, in order, before Close returns; and Close on a connection its
// caller already closed returns at once.
func TestWriterCloseDrains(t *testing.T) {
	t.Parallel()
	c1, c2 := net.Pipe()
	defer c2.Close()
	w := NewWriter(c1)
	const n = 100
	for i := range n {
		if err := w.QueueReply(Reply{ID: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := make(chan []int64, 1)
	go func() {
		var ids []int64
		br := bufio.NewReader(c2)
		for {
			p, err := ReadRawFrame(br, nil)
			if err != nil {
				got <- ids
				return
			}
			rep, err := DecodeReplyFrame(p)
			if err != nil {
				t.Error(err)
			}
			ids = append(ids, rep.ID)
		}
	}()
	w.Close()
	c1.Close()
	ids := <-got
	if len(ids) != n {
		t.Fatalf("%d of %d frames arrived", len(ids), n)
	}
	for i, id := range ids {
		if id != int64(i) {
			t.Fatalf("frame %d carries ID %d", i, id)
		}
	}

	stalled, peer := net.Pipe()
	defer peer.Close()
	w = NewWriter(stalled)
	w.QueueReply(Reply{ID: 1})
	stalled.Close()
	done := make(chan struct{})
	go func() { w.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close over a closed connection did not return")
	}
}

// instanceEnd is the instance side of a link: a reader and a Writer, the
// way serveConn holds its connection.
type instanceEnd struct {
	w    *Writer
	br   *bufio.Reader
	rbuf []byte
}

func (e *instanceEnd) readRequest() (RequestView, error) {
	p, err := ReadFrameView(e.br, &e.rbuf)
	if err != nil {
		return RequestView{}, err
	}
	return DecodeRequestView(p)
}

// wirePair returns the two ends of one loopback link, each held the way
// the controller and the instance hold theirs.
func wirePair(t *testing.T) (ctrl *wireConn, inst *instanceEnd) {
	t.Helper()
	ln := listenLocal(t)
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			c = nil
		}
		accepted <- c
	}()
	c1, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c2 := <-accepted
	if c2 == nil {
		t.Fatal("accept failed")
	}
	ctrl = newWireConn(c1, bufio.NewReaderSize(c1, wireBufSize))
	inst = &instanceEnd{w: NewWriter(c2), br: bufio.NewReaderSize(c2, wireBufSize)}
	t.Cleanup(func() {
		ctrl.close()
		c2.Close()
		inst.w.Close()
	})
	return ctrl, inst
}

// TestWireLinkCarriesFramesPastTheWindow: the link's buffers hold a burst,
// not the largest frame. The widest request the codec takes and a reply
// whose error is larger than the whole read window each arrive intact,
// and the small frame behind them still decodes.
func TestWireLinkCarriesFramesPastTheWindow(t *testing.T) {
	t.Parallel()
	ctrl, inst := wirePair(t)
	req := Request{ID: 7, Model: strings.Repeat("m", 255), Session: strings.Repeat("s", 255), Batch: 999, DeadlineMS: 1234, Trace: true}
	rep := Reply{ID: 7, ServiceMS: 1.5, WaitNS: 42, Err: strings.Repeat("e", 10<<10)}
	if 4+replyFixed+len(rep.Err) <= wireBufSize {
		t.Fatalf("the reply must outgrow the %d-byte window", wireBufSize)
	}
	ctrl.queue(req)
	ctrl.queue(Request{ID: 8, Model: "NCF", Batch: 1})
	ctrl.flush()
	if err := errors.Join(inst.w.QueueReply(rep), inst.w.QueueReply(Reply{ID: 8})); err != nil {
		t.Fatal(err)
	}
	inst.w.Kick()
	for _, id := range []int64{7, 8} {
		rv, err := inst.readRequest()
		if err != nil {
			t.Fatal(err)
		}
		want := Request{ID: 8, Model: "NCF", Batch: 1}
		if id == 7 {
			want = req
		}
		got := Request{ID: rv.ID, Model: string(rv.Model), Session: string(rv.Session), Batch: rv.Batch, DeadlineMS: rv.DeadlineMS, Trace: rv.Traced}
		if got != want {
			t.Fatalf("request %d arrived as %+v", id, got)
		}
	}
	for _, want := range []Reply{rep, {ID: 8}} {
		var got Reply
		if err := ctrl.readReply(&got); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("reply %d arrived with %d-byte error, want %d", got.ID, len(got.Err), len(want.Err))
		}
	}
}

// TestWireLinkBurstArrivesInOrder: a burst longer than the read window —
// 200 requests queued, kicked as they go, the writer coalescing whatever
// it finds queued — arrives complete and in order.
func TestWireLinkBurstArrivesInOrder(t *testing.T) {
	t.Parallel()
	ctrl, inst := wirePair(t)
	const n = 200
	go func() {
		for i := range n {
			ctrl.queue(Request{ID: int64(i), Model: "MT-WND", Batch: 1 + i, Session: "alice"})
			if i%7 == 0 {
				ctrl.flush()
			}
		}
		ctrl.flush()
	}()
	for i := range n {
		rv, err := inst.readRequest()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if rv.ID != int64(i) || rv.Batch != 1+i || string(rv.Model) != "MT-WND" || string(rv.Session) != "alice" {
			t.Fatalf("request %d arrived as %+v", i, rv)
		}
	}
	if err := ctrl.w.Cause(nil); err != nil {
		t.Fatal(err)
	}
}
