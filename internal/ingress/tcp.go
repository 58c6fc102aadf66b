package ingress

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"kairos/internal/obs"
	"kairos/internal/server"
)

// The binary TCP transport. Each connection runs one read loop (admission
// decisions and NACKs happen synchronously, in request order), hands
// admitted queries to the shard's pooled waiters, and funnels every reply
// through a per-connection coalescing buffer drained by one flusher
// goroutine — a burst of completions costs one write syscall, not one
// per query, and no reply ever allocates a goroutine or a frame buffer.

// maxRetainedReplyBuf caps the write-buffer capacity a connection keeps
// across bursts. One oversized burst (a deep pipeline completing at once)
// may grow the buffer arbitrarily; holding that memory for the life of
// an idle connection is the retention bug this cap fixes.
const maxRetainedReplyBuf = 64 << 10

// tcpConn is one external binary-TCP client.
type tcpConn struct {
	srv     *Server
	conn    net.Conn
	sh      *shard
	shardID uint32

	// bucket is the client's rate-limit bucket; authFailed marks a client
	// that presented no valid token to a token-gated front door — its
	// submissions are NACKed but the connection stays up (the reply is
	// how the client learns).
	bucket     *clientBucket
	authFailed bool

	inflight sync.WaitGroup // admitted queries not yet queued for reply

	wmu   sync.Mutex
	wbuf  []byte        // encoded reply frames awaiting flush
	spare []byte        // flusher's drained buffer, swapped back in
	werr  error         // first write/encode error; replies stop accumulating
	kick  chan struct{} // cap 1: "the buffer is non-empty"
	done  chan struct{} // read loop is finished and inflight is drained
}

// serveTCPConn handles one external TCP client: banner, the strict
// version check and auth, then the request loop.
func (s *Server) serveTCPConn(conn net.Conn, sh *shard) {
	tc := &tcpConn{
		srv: s, conn: conn, sh: sh, shardID: uint32(sh.id),
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	// Deferred teardown runs in reverse order: drain the waiters and the
	// flusher first (every admitted query replies), untrack, then close.
	defer conn.Close()
	defer s.tracker.Track(conn)()
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
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
	tc.authenticate(ack.Token)
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
	var rbuf []byte
	for {
		p, err := server.ReadRawFrame(br, rbuf)
		if err != nil {
			return
		}
		rbuf = p[:0]
		rv, err := server.DecodeRequestView(p)
		if err != nil {
			return
		}
		// rv's byte fields alias rbuf; handleTCP consumes them before
		// returning (hash, map lookup), so the reuse is safe.
		s.handleTCP(tc, rv, time.Now())
	}
}

// authenticate resolves the handshake token against the front door's
// gate. No gate: every client is anonymous and unlimited.
func (tc *tcpConn) authenticate(token string) {
	a := tc.srv.auth
	if a == nil {
		return
	}
	b, ok := a.lookup([]byte(token))
	if !ok {
		tc.authFailed = true
		return
	}
	tc.bucket = b
}

// handleTCP admits one query and hands it to the shard's waiter pool;
// rejections are answered inline, in request order. t0 is the request's
// receive timestamp, the anchor for the front-door stages and deadline.
func (s *Server) handleTCP(tc *tcpConn, rv server.RequestView, t0 time.Time) {
	if tc.authFailed {
		s.unrouted.Add(1)
		tc.queueReply(server.Reply{ID: rv.ID, Err: UnauthorizedMsg})
		return
	}
	mf := s.models[string(rv.Model)]
	if mf == nil {
		s.unrouted.Add(1)
		tc.queueReply(server.Reply{ID: rv.ID, Err: fmt.Sprintf("ingress: unknown model %q (serving %v)", rv.Model, s.order)})
		return
	}
	fs := &mf.shards[tc.shardID]
	if s.auth != nil && s.auth.limited(tc.bucket) {
		fs.limited.Add(1)
		tc.queueReply(server.Reply{ID: rv.ID, Err: RateLimitedMsg})
		return
	}
	if !fs.admit(s.perShard) {
		fs.rejected.Add(1)
		tc.queueReply(server.Reply{ID: rv.ID, Err: QueueFullMsg})
		return
	}
	fs.submitted.Add(1)
	fs.tcp.Add(1)
	mf.mo.RecordShard(obs.StageAdmit, tc.shardID, time.Since(t0))
	opts := submitOpts(rv.Session, rv.DeadlineMS, t0)
	tc.inflight.Add(1)
	tc.sh.pool.serve(waitWork{tc: tc, mf: mf, fs: fs, id: rv.ID, batch: rv.Batch, opts: opts, t0: t0})
}

// runWait is the waiter body: block on the controller, account the
// outcome, release the admission slot, queue the reply. The reply is
// queued before inflight.Done so the connection's final drain always
// flushes it.
func (s *Server) runWait(w waitWork) {
	res := s.ctrl.SubmitWaitOpts(w.mf.name, w.batch, w.opts)
	if res.Err != nil {
		w.fs.failed.Add(1)
	} else {
		w.fs.completed.Add(1)
	}
	w.fs.queue.Add(-1)
	w.mf.mo.RecordShard(obs.StageIngress, w.tc.shardID, time.Since(w.t0))
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

// waitWork is one admitted query travelling to a pooled waiter.
type waitWork struct {
	tc    *tcpConn
	mf    *modelFront
	fs    *frontShard
	id    int64
	batch int
	opts  server.SubmitOptions
	t0    time.Time
}

// waiter is one parked pool goroutine, addressed by its handoff channel.
type waiter struct {
	ch chan waitWork
}

// waiterPool replaces goroutine-per-query waiting: a LIFO stack of
// parked goroutines per shard. Steady-state submission is a channel
// handoff to a warm goroutine — no go statement, no stack allocation;
// the pool only grows when concurrency exceeds its high-water mark.
type waiterPool struct {
	run func(waitWork)
	wg  *sync.WaitGroup

	mu     sync.Mutex
	idle   []*waiter
	closed bool
}

// serve hands w to a parked waiter, or starts one. After close, late
// work (a query that raced the drain) runs on a one-shot goroutine.
func (p *waiterPool) serve(w waitWork) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		wt := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		wt.ch <- w
		return
	}
	closed := p.closed
	p.mu.Unlock()
	p.wg.Add(1)
	if closed {
		go func() {
			defer p.wg.Done()
			p.run(w)
		}()
		return
	}
	go p.worker(w)
}

func (p *waiterPool) worker(first waitWork) {
	defer p.wg.Done()
	self := &waiter{ch: make(chan waitWork)}
	w, ok := first, true
	for ok {
		p.run(w)
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return
		}
		p.idle = append(p.idle, self)
		p.mu.Unlock()
		w, ok = <-self.ch
	}
}

// close wakes every parked waiter to exit. Busy waiters finish their
// query first and exit on their next park attempt.
func (p *waiterPool) close() {
	p.mu.Lock()
	p.closed = true
	for _, wt := range p.idle {
		close(wt.ch)
	}
	p.idle = nil
	p.mu.Unlock()
}
