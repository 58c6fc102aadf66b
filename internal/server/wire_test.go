package server

import (
	"errors"
	"net"
	"strings"
	"testing"
)

// TestConnWriterStickyError: a mid-round auto-flush failure drops frames
// that were queued earlier in the round, so the error must stick — the
// round's final flush has to keep reporting it, otherwise groupRound
// would never undo the dropped dispatches.
func TestConnWriterStickyError(t *testing.T) {
	t.Parallel()
	c1, c2 := net.Pipe()
	c2.Close() // every write on c1 now fails
	defer c1.Close()
	cw := &connWriter{conn: c1, buf: make([]byte, 32)}
	frame := make([]byte, 24)
	if err := cw.queue(frame); err != nil {
		t.Fatalf("buffered queue must not touch the socket: %v", err)
	}
	// The second frame does not fit: the auto-flush hits the dead socket.
	if err := cw.queue(frame); err == nil {
		t.Fatal("auto-flush on a dead connection must error")
	}
	if err := cw.flush(); err == nil {
		t.Fatal("flush after a failed auto-flush must keep reporting the error: the first frame was dropped")
	}
	if err := cw.queue(frame); err == nil {
		t.Fatal("queue after a write failure must keep reporting the error")
	}
}

// wirePair returns the two ends of one loopback link, each wrapped the
// way the controller and the instance wrap theirs.
func wirePair(t *testing.T) (a, b *wireConn) {
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
	a, b = newWireConn(c1), newWireConn(c2)
	t.Cleanup(func() { a.close(); b.close() })
	return a, b
}

// TestWireLinkCarriesFramesPastTheWindow: the link's buffers hold a burst,
// not the largest frame. The widest request the codec takes and a reply
// whose error is larger than the whole window each arrive intact, and the
// small frame behind them still decodes.
func TestWireLinkCarriesFramesPastTheWindow(t *testing.T) {
	t.Parallel()
	ctrl, inst := wirePair(t)
	req := Request{ID: 7, Model: strings.Repeat("m", 255), Session: strings.Repeat("s", 255), Batch: 999, DeadlineMS: 1234, Trace: true}
	rep := Reply{ID: 7, ServiceMS: 1.5, WaitNS: 42, Err: strings.Repeat("e", 10<<10)}
	if 4+replyFixed+len(rep.Err) <= wireBufSize {
		t.Fatalf("the reply must outgrow the %d-byte window", wireBufSize)
	}
	errc := make(chan error, 2)
	go func() {
		errc <- errors.Join(ctrl.queue(req), ctrl.queue(Request{ID: 8, Model: "NCF", Batch: 1}), ctrl.flush())
	}()
	go func() {
		errc <- errors.Join(inst.queueReply(rep), inst.queueReply(Reply{ID: 8}), inst.flush())
	}()
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
	for range 2 {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestWireLinkBurstArrivesInOrder: a burst longer than the window — 200
// requests queued, then one flush — auto-flushes whole frames as the
// buffer fills and arrives complete and in order.
func TestWireLinkBurstArrivesInOrder(t *testing.T) {
	t.Parallel()
	ctrl, inst := wirePair(t)
	const n = 200
	errc := make(chan error, 1)
	go func() {
		var err error
		for i := range n {
			err = errors.Join(err, ctrl.queue(Request{ID: int64(i), Model: "MT-WND", Batch: 1 + i, Session: "alice"}))
		}
		errc <- errors.Join(err, ctrl.flush())
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
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}
