package ingress

import (
	"bufio"
	"errors"
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
// settles the account and queues the reply on the connection's
// server.Writer — a burst of completions costs one write syscall, not one
// per query, and no reply ever allocates a goroutine or a frame buffer.

// tcpConn is one external binary-TCP client.
type tcpConn struct {
	w *server.Writer

	// who is the client's standing at the gate, resolved once from the
	// handshake token. A denied client's submissions are NACKed but the
	// connection stays up (the reply is how the client learns).
	who client

	inflight sync.WaitGroup // admitted queries whose sink has not queued the reply yet
}

// serveTCPConn handles one external TCP client: the handshake (Greet:
// banner, the strict version check, the auth token), then the request
// loop. The loop ends on the first read error: the client hung up, a
// drain, or the writer closing the connection on a failure (a client that
// stops reading fails it within WriteTimeout, or sooner once its backlog
// passes the cap) — so a client nobody can answer is never served. Every
// admitted query then queues its reply, the writer's final drain writes
// them, and the accept loop untracks and closes the conn.
func (s *Server) serveTCPConn(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 16<<10)
	ack, err := s.tracker.Greet(conn, br, server.Hello{TypeName: "ingress", Proto: server.ProtoSession})
	if errors.Is(err, server.ErrWireVersion) {
		s.logf("ingress: refusing %s: client acked wire version %d, this front door speaks %d",
			conn.RemoteAddr(), ack.Proto, server.ProtoSession)
	}
	if err != nil {
		return
	}
	// The request loop reads with no deadline (Greet cleared it, or left it
	// expired after a Close sweep); the writer bounds every write.
	tc := &tcpConn{w: server.NewWriter(conn), who: s.auth.identify([]byte(ack.Token))}
	defer func() {
		tc.inflight.Wait()
		tc.w.Close()
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
		tc.reply(server.Reply{ID: rv.ID, Err: reject})
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
// takes the writer's lock for an append and never writes). The reply is
// queued before inflight.Done so the connection's final drain always
// writes it.
func (q *tcpQuery) QueryDone(res server.QueryResult) {
	w := *q
	*q = tcpQuery{} // an idle pooled sink must not pin its connection
	tcpQueries.Put(q)
	w.mf.settle(res, w.t0)
	rep := server.Reply{ID: w.id, ServiceMS: res.LatencyMS}
	if res.Err != nil {
		rep.Err = res.Err.Error()
	}
	w.tc.reply(rep)
	w.tc.inflight.Done()
}

// reply queues rep and kicks the writer. After a failure the writer drops
// it: the connection is closed and its read loop is ending; the admission
// accounting already happened.
func (tc *tcpConn) reply(rep server.Reply) {
	tc.w.QueueReply(rep)
	tc.w.Kick()
}
