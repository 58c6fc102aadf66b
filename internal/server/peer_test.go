package server

import (
	"fmt"
	"net"
	"testing"
	"time"
)

// The raw peers the tests put on either end of a connection. They perform
// the one handshake and speak the one frame per direction, so a test that
// needs a hand-driven controller or a misbehaving instance says only what
// is particular to it.

// listenLocal opens a loopback listener that the test owns.
func listenLocal(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// testPeer is the controller side of one raw connection to an instance
// server.
type testPeer struct {
	conn  net.Conn
	hello Hello
	rbuf  []byte
}

// dialPeer connects to an instance server and completes the handshake.
func dialPeer(t *testing.T, addr string) *testPeer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	p := &testPeer{conn: conn}
	if err := ReadFrame(conn, &p.hello); err != nil {
		t.Fatal(err)
	}
	if p.hello.Proto != ProtoSession {
		t.Fatalf("instance announced wire version %d, want %d", p.hello.Proto, ProtoSession)
	}
	if err := WriteFrame(conn, HelloAck{Proto: ProtoSession}); err != nil {
		t.Fatal(err)
	}
	return p
}

// send writes the requests with one Write, so they reach the server
// together.
func (p *testPeer) send(t *testing.T, reqs ...Request) {
	t.Helper()
	var buf []byte
	for _, req := range reqs {
		var err error
		if buf, err = AppendRequestFrame(buf, req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.conn.Write(buf); err != nil {
		t.Fatal(err)
	}
}

// recv reads one reply, giving up after five seconds.
func (p *testPeer) recv() (Reply, error) {
	p.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, err := ReadRawFrame(p.conn, p.rbuf)
	if err != nil {
		return Reply{}, err
	}
	p.rbuf = payload[:0]
	return DecodeReplyFrame(payload)
}

// acceptHandshake is the instance side of the handshake for a fake
// instance: announce, then require the controller's ack.
func acceptHandshake(conn net.Conn, typeName, model string) error {
	if err := WriteFrame(conn, Hello{TypeName: typeName, Model: model, Proto: ProtoSession}); err != nil {
		return err
	}
	var ack HelloAck
	if err := ReadFrame(conn, &ack); err != nil {
		return err
	}
	if ack.Proto != ProtoSession {
		return fmt.Errorf("controller acked wire version %d, want %d", ack.Proto, ProtoSession)
	}
	return nil
}

// fakeInstance is a handshaking instance server that swallows every
// request and never replies, dying when its die channel closes — the
// minimal stand-in for a wedged-then-crashed kairosd.
func fakeInstance(t *testing.T, typeName, model string) (addr string, die chan struct{}) {
	t.Helper()
	return slowFakeInstance(t, 0, typeName, model)
}

// slowFakeInstance is fakeInstance holding its banner back for delay.
func slowFakeInstance(t *testing.T, delay time.Duration, typeName, model string) (addr string, die chan struct{}) {
	t.Helper()
	ln := listenLocal(t)
	die = make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		time.Sleep(delay)
		if err := acceptHandshake(conn, typeName, model); err != nil {
			t.Errorf("fake instance handshake: %v", err)
			return
		}
		go func() {
			var buf []byte
			for {
				p, err := ReadRawFrame(conn, buf)
				if err != nil {
					return
				}
				buf = p[:0]
			}
		}()
		<-die
	}()
	return ln.Addr().String(), die
}
