package ingress

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"kairos/internal/server"
)

// otherVersions is what a peer that is not this build may put where the
// wire version goes: nothing, a retired version, or one not minted yet.
var otherVersions = map[string]string{
	"proto absent":       `{}`,
	"proto 0":            `{"proto":0}`,
	"proto 1":            `{"proto":1}`,
	"proto 2":            `{"proto":2}`,
	"proto 3":            `{"proto":3}`,
	"proto current+1":    `{"proto":` + strconv.Itoa(server.ProtoSession+1) + `}`,
	"proto not a number": `{"proto":"4"}`,
}

// frameJSON frames a literal JSON document the way server.WriteFrame would.
func frameJSON(t *testing.T, doc string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := server.WriteFrame(&buf, json.RawMessage(doc)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHandshakeRejectsOtherVersion is the front door's half of the strict
// handshake (internal/server holds the instance server's and the
// controller's): whatever a client offers other than exactly this
// version, the ingress closes the connection before reading a query and
// says why in its log; whatever a front door announces other than this
// version, DialWith fails with an error naming both — and neither leaves a
// goroutine on the refused connection.
func TestHandshakeRejectsOtherVersion(t *testing.T) {
	t.Parallel()
	query, err := server.AppendRequestFrame(nil, server.Request{ID: 1, Model: "NCF", Batch: 10})
	if err != nil {
		t.Fatal(err)
	}

	var logMu sync.Mutex
	var logged []string
	ing, ctrl := startFrontOpts(t, func(o *Options) {
		o.Logf = func(format string, args ...any) {
			logMu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			logMu.Unlock()
		}
	})
	firstFrames := map[string][]byte{
		"first frame is a JSON query":   frameJSON(t, `{"id":1,"model":"NCF","batch":10}`),
		"first frame is a binary query": query,
		"first frame is garbage":        []byte("\x00\x00\x00\x02{{"),
	}
	for name, doc := range otherVersions {
		firstFrames["ack with "+name] = frameJSON(t, doc)
	}
	for name, first := range firstFrames {
		t.Run("ingress/"+name, func(t *testing.T) {
			conn, err := net.Dial("tcp", ing.TCPAddr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			var hello server.Hello
			if err := server.ReadFrame(conn, &hello); err != nil {
				t.Fatal(err)
			}
			if hello.Proto != server.ProtoSession {
				t.Fatalf("announced wire version %d, want %d", hello.Proto, server.ProtoSession)
			}
			// The refused handshake, then a well-formed query behind it: a
			// front door that kept reading would admit it.
			if _, err := conn.Write(append(append([]byte{}, first...), query...)); err != nil {
				t.Fatal(err)
			}
			// The server closes the connection last, after its flusher and
			// waiters are gone: the close is the goroutine's exit.
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if p, err := server.ReadRawFrame(conn, nil); err == nil {
				t.Fatalf("refused client was sent a frame: %v", p)
			} else if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatal("connection still open after a refused handshake")
			}
			if st := ctrl.Stats(); st.Submitted != 0 || st.IngressUnrouted != 0 {
				t.Fatalf("refused client's query was read: submitted %d, unrouted %d", st.Submitted, st.IngressUnrouted)
			}
		})
	}
	// Every ack that decoded was refused by number, and the log says which
	// number met which.
	logMu.Lock()
	defer logMu.Unlock()
	for _, got := range []int{0, 1, 2, 3, server.ProtoSession + 1} {
		want := fmt.Sprintf("acked wire version %d, this front door speaks %d", got, server.ProtoSession)
		found := false
		for _, line := range logged {
			found = found || strings.Contains(line, want)
		}
		if !found {
			t.Fatalf("no log line says %q in %q", want, logged)
		}
	}

	for name, doc := range otherVersions {
		t.Run("DialWith/"+name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			sawEOF := make(chan error, 1)
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					sawEOF <- err
					return
				}
				defer conn.Close()
				var banner map[string]any
				json.Unmarshal([]byte(doc), &banner)
				banner["type_name"] = "ingress"
				if err := server.WriteFrame(conn, banner); err != nil {
					sawEOF <- err
					return
				}
				// The client must hang up without acking or submitting.
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				_, err = server.ReadRawFrame(conn, nil)
				sawEOF <- err
			}()
			c, err := DialWith(ln.Addr().String(), DialOptions{Token: "t"})
			if err == nil {
				c.Close()
				t.Fatal("dial accepted a front door of another wire version")
			}
			if name != "proto not a number" {
				var banner struct{ Proto int }
				json.Unmarshal([]byte(doc), &banner)
				for _, want := range []string{
					"speaks wire version " + strconv.Itoa(banner.Proto),
					"client speaks " + strconv.Itoa(server.ProtoSession),
				} {
					if !strings.Contains(err.Error(), want) {
						t.Fatalf("error %q does not say %q", err, want)
					}
				}
			}
			if err := <-sawEOF; err == nil {
				t.Fatal("client sent a frame to a front door it refused")
			} else if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatal("client left the refused connection open")
			}
		})
	}
}

// TestHandshakeIsBounded: the binary door gives a client server.HandshakeTimeout
// to ack the banner. One that connects and says nothing is hung up on —
// it used to hold a goroutine and a descriptor for as long as it liked —
// while one that acks late but inside the bound is served, and keeps its
// connection past the bound: the deadline was the handshake's, not the
// connection's. The client side has the same bound: Dial gives up on a
// door that accepts and never speaks (it used to wait forever).
func TestHandshakeIsBounded(t *testing.T) {
	t.Parallel()
	ing, _ := startFrontOpts(t, func(*Options) {})
	dial := func(t *testing.T) net.Conn {
		conn, err := net.Dial("tcp", ing.TCPAddr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		var hello server.Hello
		if err := server.ReadFrame(conn, &hello); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	t.Run("silent client is dropped", func(t *testing.T) {
		t.Parallel()
		conn := dial(t)
		start := time.Now()
		conn.SetReadDeadline(start.Add(server.HandshakeTimeout + 5*time.Second))
		if p, err := server.ReadRawFrame(conn, nil); err == nil {
			t.Fatalf("silent client was sent a frame: %v", p)
		} else if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("connection still open %v after a handshake that never came", time.Since(start))
		}
		if held := time.Since(start); held < server.HandshakeTimeout/2 {
			t.Fatalf("dropped after %v: the bound is %v", held, server.HandshakeTimeout)
		}
	})
	t.Run("late ack is served", func(t *testing.T) {
		t.Parallel()
		conn := dial(t)
		time.Sleep(server.HandshakeTimeout / 3)
		if err := server.WriteFrame(conn, server.HelloAck{Proto: server.ProtoSession}); err != nil {
			t.Fatal(err)
		}
		submit := func(id int64) {
			t.Helper()
			frame, err := server.AppendRequestFrame(nil, server.Request{ID: id, Model: "NCF", Batch: 10})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			p, err := server.ReadRawFrame(conn, nil)
			if err != nil {
				t.Fatalf("query %d: %v", id, err)
			}
			if rep, err := server.DecodeReplyFrame(p); err != nil || rep.ID != id || rep.Err != "" {
				t.Fatalf("query %d: reply %+v, %v", id, rep, err)
			}
		}
		submit(1)
		time.Sleep(server.HandshakeTimeout) // now well past accept + server.HandshakeTimeout
		submit(2)
	})
	t.Run("Dial gives up on a silent door", func(t *testing.T) {
		t.Parallel()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		release := make(chan struct{})
		defer close(release)
		go func() {
			if conn, err := ln.Accept(); err == nil {
				<-release // hold the connection open, say nothing
				conn.Close()
			}
		}()
		start := time.Now()
		done := make(chan error, 1)
		go func() {
			c, err := Dial(ln.Addr().String())
			if err == nil {
				c.Close()
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "handshake") {
				t.Fatalf("Dial against a silent door: %v, want a handshake error", err)
			}
			if took := time.Since(start); took > server.HandshakeTimeout+2*time.Second {
				t.Fatalf("Dial gave up after %v, want about %v", took, server.HandshakeTimeout)
			}
		case <-time.After(server.HandshakeTimeout + 5*time.Second):
			t.Fatal("Dial hung on a door that accepts and never speaks")
		}
	})
}
