package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
)

// wireConn is the controller's link to one instance: the connection's
// Writer, and the reader and scratch its read loop alone uses.
type wireConn struct {
	w    *Writer
	br   *bufio.Reader
	rbuf []byte
}

// wireBufSize is the read window at both ends of a controller↔instance
// link, sized to a link's burst: at most the policy's commitment to one
// instance — one or two frames under kairos+warm, at most 16 under the
// capped least-loaded policy of the serving-path benchmarks — and a frame
// is ~40 B, so 4 KiB holds about a hundred. A larger frame is copied
// through readRawFrame. The window is set-up cost, paid twice per link;
// CI bounds what one more instance costs to bring up at 32 KiB
// (ControllerBringUp32 − ControllerBringUp8, per instance).
const wireBufSize = 4 << 10

// newWireConn wraps a handshaken connection and starts its writer; br is
// the reader the handshake read through, so nothing it buffered is lost.
func newWireConn(conn net.Conn, br *bufio.Reader) *wireConn {
	return &wireConn{w: NewWriter(conn), br: br}
}

// queue's only error is the link's failure, which closed it: the read loop
// evicts, naming it (newController refuses a model name the wire cannot
// carry, so every dispatch encodes).
func (l *wireConn) queue(req Request) { l.w.QueueRequest(req) }

func (l *wireConn) flush() { l.w.Kick() }

// close closes the connection first, so the writer's final write fails at
// once, and waits for the writer goroutine.
func (l *wireConn) close() error {
	err := l.w.conn.Close()
	l.w.Close()
	return err
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

// readReply reads one reply; only the link's read loop calls it.
func (l *wireConn) readReply(rep *Reply) error {
	p, err := ReadFrameView(l.br, &l.rbuf)
	if err == nil {
		*rep, err = DecodeReplyFrame(p)
	}
	return err
}
