package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"
)

// HandshakeTimeout bounds the handshake at both ends of the wire, the one
// bound every peer runs it under: a serving side gives a dialer this long
// from accept to its HelloAck, a dialer gives a serving side this long from
// connect to the banner and its own ack. A peer that connects and never
// speaks, or reads the banner and never acks, must not pin a goroutine and
// a descriptor — or hang AddInstance and the actuation above it, or an
// instance's Close.
const HandshakeTimeout = 3 * time.Second

// ErrWireVersion is Greet's refusal of an ack of another wire version; the
// error wraps it and Greet returns the ack, so the caller can say which
// number it met.
var ErrWireVersion = errors.New("server: ack of another wire version")

// Greet is the serving side of the handshake: it writes hello and reads
// the dialer's HelloAck through br, both inside HandshakeTimeout, and
// refuses any ack but one of exactly ProtoSession — a stale or foreign
// peer whose frames would misdecode. The deadline is the handshake's, not
// the connection's: Greet clears it, except that once a drain sweep has
// run the read deadline stays expired, so no handler can undo a sweep.
func (t *ConnTracker) Greet(conn net.Conn, br *bufio.Reader, hello Hello) (HelloAck, error) {
	deadline := time.Now().Add(HandshakeTimeout)
	conn.SetWriteDeadline(deadline)
	t.setReadDeadline(conn, deadline)
	var ack HelloAck
	if err := WriteFrame(conn, hello); err != nil {
		return ack, err
	}
	if err := ReadFrame(br, &ack); err != nil {
		return ack, err
	}
	if ack.Proto != ProtoSession {
		return ack, fmt.Errorf("%w: acked %d, this side speaks %d", ErrWireVersion, ack.Proto, ProtoSession)
	}
	conn.SetWriteDeadline(time.Time{})
	t.setReadDeadline(conn, time.Time{})
	return ack, nil
}

// Dial is the dialing side of the handshake (the controller, the exec
// provider's launch probe, the ingress client): connect, read the banner
// through a reader of bufSize, refuse any wire version but ProtoSession
// before acking, then write ack — connect included, all inside one
// HandshakeTimeout, lifted on success. What the banner announces beyond
// its version is the caller's to check; who names the caller in a version
// error.
func Dial(addr, who string, ack HelloAck, bufSize int) (net.Conn, *bufio.Reader, Hello, error) {
	deadline := time.Now().Add(HandshakeTimeout)
	conn, err := (&net.Dialer{Deadline: deadline}).Dial("tcp", addr)
	if err != nil {
		return nil, nil, Hello{}, fmt.Errorf("server: dialing %s: %w", addr, err)
	}
	conn.SetDeadline(deadline)
	br := bufio.NewReaderSize(conn, bufSize)
	var hello Hello
	err = ReadFrame(br, &hello)
	if err == nil && hello.Proto != ProtoSession {
		err = fmt.Errorf("peer %q speaks wire version %d, this %s speaks %d", hello.TypeName, hello.Proto, who, ProtoSession)
	}
	if err == nil {
		err = WriteFrame(conn, ack)
	}
	if err != nil {
		conn.Close()
		return nil, nil, Hello{}, fmt.Errorf("server: handshake with %s: %w", addr, err)
	}
	conn.SetDeadline(time.Time{})
	return conn, br, hello, nil
}
