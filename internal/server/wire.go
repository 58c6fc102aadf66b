package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
)

// wireConn wraps one TCP connection with buffered I/O and the binary
// codec. Writers queue frames into the buffered writer and flush
// explicitly, so a dispatch burst to one instance is a single syscall
// instead of two writes per tiny frame. Reads are single-goroutine (each
// side runs one read loop per connection) and reuse one scratch buffer;
// writes are serialized by wmu.
type wireConn struct {
	conn net.Conn
	br   *bufio.Reader

	wmu  sync.Mutex
	bw   *connWriter
	fbuf []byte // encode scratch, guarded by wmu
	rbuf []byte // read scratch, owned by the reading goroutine
}

// connWriter is a minimal buffered writer over the conn; unlike
// bufio.Writer it never auto-flushes mid-frame — frames larger than the
// remaining space flush the buffer first, so the wire always carries whole
// frames per syscall. A write failure is sticky: the buffer's contents
// were (partially) dropped, so every later queue and flush keeps
// reporting the error — a round that queued frames before the failure
// still learns about it from its final flush and can undo the whole
// burst.
type connWriter struct {
	conn net.Conn
	buf  []byte
	n    int
	err  error // first write failure; the connection is dead after it
}

func (cw *connWriter) queue(frame []byte) error {
	if cw.err != nil {
		return cw.err
	}
	if cw.n+len(frame) > len(cw.buf) {
		if err := cw.flush(); err != nil {
			return err
		}
		if len(frame) > len(cw.buf) {
			if _, err := cw.conn.Write(frame); err != nil {
				cw.err = err
				return err
			}
			return nil
		}
	}
	cw.n += copy(cw.buf[cw.n:], frame)
	return nil
}

func (cw *connWriter) flush() error {
	if cw.err != nil {
		return cw.err
	}
	if cw.n == 0 {
		return nil
	}
	_, err := cw.conn.Write(cw.buf[:cw.n])
	cw.n = 0
	cw.err = err
	return err
}

// wireBufSize is the reader and the writer window at both ends of a
// controller↔instance link, sized to a link's burst: a flush carries at
// most the policy's commitment to that one instance — one or two frames
// under kairos+warm, at most 16 under the capped least-loaded policy of
// the serving-path benchmarks — and a frame is ~40 B, so 4 KiB holds about
// a hundred. A larger frame is never split or refused: the reader copies
// it through readRawFrame and the writer flushes first or writes it
// directly. The window is set-up cost, paid four times per link; CI
// bounds what one more instance costs to bring up at 32 KiB
// (ControllerBringUp32 − ControllerBringUp8, per instance; ~20 KB).
const wireBufSize = 4 << 10

// newWireConn wraps a handshaken connection; br is the reader the
// handshake read through, so nothing it buffered is lost.
func newWireConn(conn net.Conn, br *bufio.Reader) *wireConn {
	return &wireConn{
		conn: conn,
		br:   br,
		bw:   &connWriter{conn: conn, buf: make([]byte, wireBufSize)},
	}
}

func (w *wireConn) close() error { return w.conn.Close() }

// queue encodes req into the write buffer without flushing; callers
// coalesce a burst and flush once. With flush and close it is the
// controller's link to an instance (see round.go).
func (w *wireConn) queue(req Request) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	frame, err := AppendRequestFrame(w.fbuf[:0], req)
	if err != nil {
		return err
	}
	w.fbuf = frame
	return w.bw.queue(frame)
}

// queueReply encodes rep into the write buffer without flushing; the
// instance loop flushes once no further request is already buffered, so a
// burst of served queries is one syscall.
func (w *wireConn) queueReply(rep Reply) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	frame, err := AppendReplyFrame(w.fbuf[:0], rep)
	if err != nil {
		return err
	}
	w.fbuf = frame
	return w.bw.queue(frame)
}

// flush pushes every queued frame to the socket.
func (w *wireConn) flush() error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return w.bw.flush()
}

// ReadFrameView reads one length-prefixed payload from br: the one frame
// reader of the controller, the instance and the front door. When the whole
// frame already fits the bufio window it is returned as a zero-copy view
// into the buffer (valid only until the next read on br — the single-reader
// loops decode immediately); larger frames fall back to the copying path
// through the caller's scratch buffer.
func ReadFrameView(br *bufio.Reader, scratch *[]byte) ([]byte, error) {
	hdr, err := br.Peek(4)
	if err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > MaxFrame {
		return nil, fmt.Errorf("server: frame of %d bytes exceeds limit", n)
	}
	if p, err := br.Peek(4 + n); err == nil {
		br.Discard(4 + n)
		return p[4:], nil
	}
	*scratch, err = readRawFrame(br, *scratch) // longer than the window: copy
	return *scratch, err
}

func (w *wireConn) readFrame() ([]byte, error) { return ReadFrameView(w.br, &w.rbuf) }

// readReply reads one reply (controller side).
func (w *wireConn) readReply(rep *Reply) error {
	p, err := w.readFrame()
	if err != nil {
		return err
	}
	r, err := DecodeReplyFrame(p)
	if err != nil {
		return err
	}
	*rep = r
	return nil
}

// readRequest reads one request (instance side). The view's byte fields
// alias the read buffer and are only valid until the next read.
func (w *wireConn) readRequest() (RequestView, error) {
	p, err := w.readFrame()
	if err != nil {
		return RequestView{}, err
	}
	return DecodeRequestView(p)
}
