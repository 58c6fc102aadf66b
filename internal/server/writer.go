package server

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// WriteTimeout bounds every write on an established connection: a peer
// that stops reading holds up only its own connection's writer, and only
// for this long.
const WriteTimeout = 30 * time.Second

// maxRetainedBuf caps the buffer capacity a writer keeps across bursts,
// so one oversized burst does not pin its memory for the connection's life.
const maxRetainedBuf = 64 << 10

// maxBacklog caps what a writer holds behind its write: the memory a peer
// that stops reading can pin, where WriteTimeout bounds the time. A live
// peer's burst — the policy's commitment to one instance, a door
// connection's admitted queries, at ~40 B a frame — stays far below it.
const maxBacklog = 1 << 20

var errBacklog = fmt.Errorf("server: peer not reading: unwritten backlog over %d bytes", maxBacklog)

// Writer is the outbound half of a binary-wire connection, for every side
// of the wire: any goroutine queues an encoded frame under a short lock
// and kicks, and the connection's one writer goroutine swaps the backlog
// out and writes it in one syscall under WriteTimeout. Frames queued while
// a write is in flight coalesce into the next; no caller waits on the
// socket. Every failure — a frame that does not encode, a write error or
// deadline, a backlog past maxBacklog — is sticky and closes the
// connection, so its reader fails and leaves by its side's one fault exit,
// naming the failure through Cause; later frames are dropped.
type Writer struct {
	conn  net.Conn
	kick  chan struct{} // cap 1: "look at the backlog"
	done  chan struct{} // closed when the writer goroutine returns
	spare []byte        // the writer goroutine's last written buffer, swapped back in

	mu      sync.Mutex
	buf     []byte // encoded frames awaiting the writer; nil until the first
	err     error  // first failure
	stopped bool   // Close has begun
}

// NewWriter starts conn's writer goroutine; Close ends it.
func NewWriter(conn net.Conn) *Writer {
	w := &Writer{conn: conn, kick: make(chan struct{}, 1), done: make(chan struct{})}
	go w.run()
	return w
}

// QueueRequest appends req's frame to the backlog; Kick hands the backlog
// to the writer. The error is the connection's failure, if it has failed.
func (w *Writer) QueueRequest(req Request) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended(AppendRequestFrame(w.buf, req))
}

// QueueReply is QueueRequest for a reply.
func (w *Writer) QueueReply(rep Reply) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended(AppendReplyFrame(w.buf, rep))
}

// appended keeps an encode's result as the backlog, or fails the
// connection. Callers hold mu.
func (w *Writer) appended(buf []byte, err error) error {
	if w.err != nil {
		return w.err
	}
	if err == nil && len(buf) > maxBacklog {
		err = errBacklog
	}
	if err != nil {
		w.failLocked(err)
		return err
	}
	w.buf = buf
	return nil
}

// failLocked records the first failure, drops the backlog and closes the
// connection under its reader. Callers hold mu.
func (w *Writer) failLocked(err error) {
	if w.err == nil {
		w.err = err
	}
	w.buf = nil
	w.conn.Close()
}

// Kick wakes the writer goroutine; it never blocks.
func (w *Writer) Kick() {
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// Cause is what ended the connection for a reader whose read failed with
// err: the writer's failure, which closed it under the reader, else err.
func (w *Writer) Cause(err error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	return err
}

// Close writes what is queued — an orderly end loses no frame — and waits
// for the writer goroutine. Against a peer that stopped reading the final
// write is bounded by WriteTimeout; a caller that closed the connection
// first makes it fail at once. Idempotent.
func (w *Writer) Close() {
	w.mu.Lock()
	w.stopped = true
	w.mu.Unlock()
	w.Kick()
	<-w.done
}

// run is the writer goroutine: on each kick it writes until the backlog
// stays empty, and returns once it finds it empty after Close began.
func (w *Writer) run() {
	defer close(w.done)
	for range w.kick {
		for {
			w.mu.Lock()
			out, stopped := w.buf, w.stopped
			if len(out) == 0 || w.err != nil {
				w.mu.Unlock()
				if stopped {
					return
				}
				break
			}
			w.buf = w.spare[:0]
			w.mu.Unlock()
			w.conn.SetWriteDeadline(time.Now().Add(WriteTimeout))
			_, err := w.conn.Write(out)
			if cap(out) > maxRetainedBuf {
				out = nil
			}
			w.spare = out[:0]
			if err != nil {
				w.mu.Lock()
				w.failLocked(err)
				w.mu.Unlock()
			}
		}
	}
}
