package ingress

import (
	"bufio"
	"net"
	"sync"
	"time"

	"kairos/internal/server"
	"kairos/internal/slab"
)

// The binary TCP transport. Each connection runs one read loop (admission
// decisions and NACKs happen synchronously, in request order) that submits
// admitted queries in place, each with a pooled completion sink, and goes
// back to reading: no goroutine waits on a query in flight. Whichever
// controller goroutine decides a query's outcome runs its sink, which
// settles the account and appends the reply to a per-connection coalescing
// buffer drained by one flusher goroutine — a burst of completions costs
// one write syscall, not one per query, and no reply ever allocates a
// goroutine or a frame buffer.

// maxRetainedReplyBuf caps the write-buffer capacity a connection keeps
// across bursts. One oversized burst (a deep pipeline completing at once)
// may grow the buffer arbitrarily; holding that memory for the life of
// an idle connection is the retention bug this cap fixes.
const maxRetainedReplyBuf = 64 << 10

// tcpConn is one external binary-TCP client.
type tcpConn struct {
	conn net.Conn

	// who is the client's standing at the gate, resolved once from the
	// handshake token. A denied client's submissions are NACKed but the
	// connection stays up (the reply is how the client learns).
	who client

	inflight sync.WaitGroup // admitted queries whose sink has not queued the reply yet

	wmu   sync.Mutex
	wbuf  []byte        // encoded reply frames awaiting flush
	spare []byte        // flusher's drained buffer, swapped back in
	werr  error         // first write/encode error; replies stop accumulating
	kick  chan struct{} // cap 1: "the buffer is non-empty"
	done  chan struct{} // read loop is finished and inflight is drained
}

// serveTCPConn handles one external TCP client: banner, the strict
// version check and auth, then the request loop.
func (s *Server) serveTCPConn(conn net.Conn) {
	tc := &tcpConn{
		conn: conn,
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	// Deferred teardown runs in reverse order: wait out the sinks and the
	// flusher first (every admitted query replies), untrack, then close.
	defer conn.Close()
	// Before Track, so a Close sweep's expired read deadline lands on top
	// of this one, whether it ran already or comes later.
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	defer s.tracker.Track(conn)()
	if err := server.WriteFrame(conn, server.Hello{TypeName: "ingress", Proto: server.ProtoSession}); err != nil {
		return
	}
	// The first frame must be the client's ack of exactly this version;
	// anything else is a stale or foreign client whose frames would
	// misdecode, so it is refused before a query is read.
	br := bufio.NewReaderSize(conn, 16<<10)
	var ack server.HelloAck
	if err := server.ReadFrame(br, &ack); err != nil {
		return
	}
	if ack.Proto != server.ProtoSession {
		s.logf("ingress: refusing %s: client acked wire version %d, this front door speaks %d",
			conn.RemoteAddr(), ack.Proto, server.ProtoSession)
		return
	}
	// The request loop reads with no deadline; every reply write sets its
	// own. Clearing may have undone a Close sweep that ran since the ack
	// arrived, so look again.
	conn.SetReadDeadline(time.Time{})
	select {
	case <-s.closed:
		return
	default:
	}
	tc.who = s.auth.identify([]byte(ack.Token))
	flusherDone := make(chan struct{})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(flusherDone)
		tc.flusher()
	}()
	defer func() {
		tc.inflight.Wait()
		close(tc.done)
		<-flusherDone
	}()
	var rbuf []byte // scratch for a frame larger than br's window
	for {
		p, err := server.ReadFrameView(br, &rbuf)
		if err != nil {
			return
		}
		rv, err := server.DecodeRequestView(p)
		if err != nil {
			return
		}
		// rv's byte fields alias the read buffer; handleTCP consumes them
		// before returning (hash, map lookup), so the next read is safe.
		s.handleTCP(tc, rv, time.Now())
	}
}

// handleTCP admits one query and submits it in place; rejections are
// answered inline, in request order. t0 is the request's receive
// timestamp, the anchor for the front-door stages and deadline.
func (s *Server) handleTCP(tc *tcpConn, rv server.RequestView, t0 time.Time) {
	mf, reject := s.admit(tc.who, rv.Model, true, t0)
	if mf == nil {
		tc.queueReply(server.Reply{ID: rv.ID, Err: reject})
		return
	}
	tc.inflight.Add(1)
	q := tcpQueries.Get()
	*q = tcpQuery{tc: tc, mf: mf, id: rv.ID, t0: t0}
	s.ctrl.SubmitTo(mf.name, rv.Batch, submitOpts(rv.Session, rv.DeadlineMS, t0), q)
}

// tcpQuery is one admitted query's completion sink: what its reply needs
// beyond the controller's result.
type tcpQuery struct {
	tc *tcpConn
	mf *modelFront
	id int64
	t0 time.Time
}

// tcpQueries recycles the sinks; a flash crowd's misses come 64 to a slab.
var tcpQueries slab.Pool[tcpQuery]

// QueryDone settles the account and queues the reply, on the controller
// goroutine that decided the outcome (server.Sink: it must not block — it
// takes the connection's buffer lock for an append and never writes). The
// reply is queued before inflight.Done so the connection's final drain
// always flushes it.
func (q *tcpQuery) QueryDone(res server.QueryResult) {
	w := *q
	*q = tcpQuery{} // an idle pooled sink must not pin its connection
	tcpQueries.Put(q)
	w.mf.settle(res, w.t0)
	rep := server.Reply{ID: w.id, ServiceMS: res.LatencyMS}
	if res.Err != nil {
		rep.Err = res.Err.Error()
	}
	w.tc.queueReply(rep)
	w.tc.inflight.Done()
}

// queueReply encodes rep into the connection's write buffer and kicks
// the flusher. After a write error replies are dropped — the client is
// gone; the admission accounting already happened.
func (tc *tcpConn) queueReply(rep server.Reply) {
	tc.wmu.Lock()
	if tc.werr == nil {
		tc.wbuf, tc.werr = server.AppendReplyFrame(tc.wbuf, rep)
	}
	tc.wmu.Unlock()
	select {
	case tc.kick <- struct{}{}:
	default:
	}
}

// flusher drains the write buffer: one goroutine per connection, one
// syscall per accumulated burst. On done it performs a final drain so an
// orderly Close loses no reply.
func (tc *tcpConn) flusher() {
	for {
		select {
		case <-tc.kick:
			tc.writeOut()
		case <-tc.done:
			tc.writeOut()
			return
		}
	}
}

// writeOut swaps the accumulated buffer out under the lock and writes it
// outside it, looping until the buffer stays empty.
func (tc *tcpConn) writeOut() {
	for {
		tc.wmu.Lock()
		if len(tc.wbuf) == 0 || tc.werr != nil {
			tc.wmu.Unlock()
			return
		}
		out := tc.wbuf
		tc.wbuf = tc.spare[:0]
		tc.wmu.Unlock()
		tc.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		_, err := tc.conn.Write(out)
		if cap(out) > maxRetainedReplyBuf {
			// Don't let one giant burst pin its buffer for the connection's
			// lifetime; shrink back and let the next burst grow organically.
			out = nil
		}
		tc.spare = out[:0]
		if err != nil {
			tc.wmu.Lock()
			tc.werr = err
			tc.wmu.Unlock()
			return
		}
	}
}
