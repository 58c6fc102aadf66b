package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"kairos/internal/cloud"
	"kairos/internal/models"
)

// TestRequestFrameRoundTrip covers the one request layout: the named
// corners of every field, then random IDs (full int64 range), batches
// (full int32 range), deadlines (full uint32 range) and model and session
// names up to the wire limit must all survive encode → decode exactly.
func TestRequestFrameRoundTrip(t *testing.T) {
	cases := []Request{
		{},
		{ID: 5, Model: "NCF", Batch: 8},
		{ID: 6, Model: "NCF", Batch: 8, Trace: true},
		{ID: 77, Model: "NCF", Batch: 123, Trace: true, Session: "user-9", DeadlineMS: 1500},
		{ID: 78, Batch: 1, Session: "s"},
		{ID: 79, Batch: 1, DeadlineMS: math.MaxUint32},
		{ID: math.MinInt64, Batch: math.MinInt32, Model: strings.Repeat("m", 255), Session: strings.Repeat("s", 255)},
		{ID: math.MaxInt64, Batch: math.MaxInt32},
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		cases = append(cases, Request{
			ID:         rng.Int63() - rng.Int63(),
			Batch:      int(int32(rng.Uint32())),
			Model:      strings.Repeat("m", rng.Intn(256)),
			Trace:      rng.Intn(2) == 1,
			Session:    strings.Repeat("s", rng.Intn(256)),
			DeadlineMS: int64(rng.Uint32()),
		})
	}
	var buf []byte
	for _, in := range cases {
		var err error
		buf, err = AppendRequestFrame(buf[:0], in)
		if err != nil {
			t.Fatalf("encode %+v: %v", in, err)
		}
		payload := unframe(t, buf)
		if payload[0] != frameRequest {
			t.Fatalf("frame kind = %#x, want the request kind", payload[0])
		}
		rv, err := DecodeRequestView(payload)
		if err != nil {
			t.Fatalf("decode %+v: %v", in, err)
		}
		if out := viewRequest(rv); out != in {
			t.Fatalf("round trip: got %+v, want %+v", out, in)
		}
	}
}

// TestReplyFrameRoundTrip is the reply-side property test, covering
// special floats and error strings up to the frame limit.
func TestReplyFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var buf []byte
	for i := 0; i < 2000; i++ {
		in := Reply{
			ID:        rng.Int63() - rng.Int63(),
			ServiceMS: math.Float64frombits(rng.Uint64()),
			Err:       strings.Repeat("e", rng.Intn(512)),
		}
		if rng.Intn(2) == 1 {
			in.Traced = true
			in.WaitNS = rng.Int63() - rng.Int63()
		}
		if math.IsNaN(in.ServiceMS) {
			in.ServiceMS = 0 // NaN != NaN breaks the equality check below
		}
		var err error
		buf, err = AppendReplyFrame(buf[:0], in)
		if err != nil {
			t.Fatalf("encode %+v: %v", in, err)
		}
		payload := unframe(t, buf)
		if payload[0] != frameReply {
			t.Fatalf("frame kind = %#x, want the reply kind", payload[0])
		}
		out, err := DecodeReplyFrame(payload)
		if err != nil {
			t.Fatalf("decode %+v: %v", in, err)
		}
		if out != in {
			t.Fatalf("round trip: %+v != %+v", out, in)
		}
	}
}

// TestCodecRejectsMalformed: wrong kind bytes, unknown flag bits,
// truncations, length mismatches, and over-limit fields must all error
// instead of misparsing.
func TestCodecRejectsMalformed(t *testing.T) {
	for name, req := range map[string]Request{
		"oversized model":         {Model: strings.Repeat("x", 256)},
		"oversized session":       {Model: "m", Batch: 1, Session: strings.Repeat("x", 256)},
		"batch outside int32":     {Batch: math.MaxInt32 + 1},
		"negative deadline":       {DeadlineMS: -1},
		"deadline outside uint32": {DeadlineMS: math.MaxUint32 + 1},
	} {
		if _, err := AppendRequestFrame(nil, req); err == nil {
			t.Fatalf("%s must fail to encode", name)
		}
	}
	if _, err := AppendReplyFrame(nil, Reply{Err: strings.Repeat("x", math.MaxUint16+1)}); err == nil {
		t.Fatal("oversized error must fail to encode")
	}
	req, err := AppendRequestFrame(nil, Request{ID: 1, Model: "NCF", Batch: 2, Session: "s"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AppendReplyFrame(nil, Reply{ID: 1, ServiceMS: 3, Err: "boom", Traced: true, WaitNS: 42})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRequestView(rep[4:]); err == nil {
		t.Fatal("request decoder must reject a reply frame")
	}
	if _, err := DecodeReplyFrame(req[4:]); err == nil {
		t.Fatal("reply decoder must reject a request frame")
	}
	mutate := func(p []byte, at int, to byte) []byte {
		q := append([]byte{}, p...)
		q[at] = to
		return q
	}
	badReqs := [][]byte{nil, {frameRequest}, append(append([]byte{}, req[4:]...), 0), mutate(req[4:], 17, 0x02), mutate(req[4:], 17, 0x81)}
	for n := 0; n < len(req)-4; n++ {
		badReqs = append(badReqs, req[4:4+n])
	}
	// The kinds of the retired layouts (versions 1–3) are not requests.
	for _, kind := range []byte{0x00, 0x01, 0x02, 0x03, 0x04, frameReply} {
		badReqs = append(badReqs, mutate(req[4:], 0, kind))
	}
	for _, p := range badReqs {
		if _, err := DecodeRequestView(p); err == nil {
			t.Fatalf("malformed request %v must fail", p)
		}
	}
	badReps := [][]byte{nil, {frameReply}, append(append([]byte{}, rep[4:]...), 0), mutate(rep[4:], 25, 0x02), mutate(rep[4:], 25, 0x81)}
	for n := 0; n < len(rep)-4; n++ {
		badReps = append(badReps, rep[4:4+n])
	}
	for _, kind := range []byte{0x00, 0x01, 0x02, 0x03, 0x04, frameRequest} {
		badReps = append(badReps, mutate(rep[4:], 0, kind))
	}
	for _, p := range badReps {
		if _, err := DecodeReplyFrame(p); err == nil {
			t.Fatalf("malformed reply %v must fail", p)
		}
	}
}

// TestHandshakeThenFrames pins the wire against a live instance server,
// driven by hand: it announces the one version, accepts the ack, and the
// first request round-trips through the binary codec.
func TestHandshakeThenFrames(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	s := startServer(t, cloud.G4dnXlarge.Name, 1)
	p := dialPeer(t, s.Addr())
	if p.hello.TypeName != cloud.G4dnXlarge.Name || p.hello.Model != m.Name {
		t.Fatalf("banner = %+v", p.hello)
	}
	p.send(t, Request{ID: 99, Model: m.Name, Batch: 50})
	rep, err := p.recv()
	if err != nil {
		t.Fatalf("no binary reply after the ack: %v", err)
	}
	if rep.ID != 99 || rep.Err != "" || rep.ServiceMS <= 0 || rep.Traced {
		t.Fatalf("reply = %+v", rep)
	}
	// The trace flag travels in the flags byte of the same layouts.
	p.send(t, Request{ID: 100, Model: m.Name, Batch: 50, Trace: true})
	if rep, err = p.recv(); err != nil || rep.ID != 100 || !rep.Traced || rep.WaitNS < 0 {
		t.Fatalf("traced reply = %+v, %v", rep, err)
	}
}

// otherVersions is what a peer that is not this build may put where the
// wire version goes: nothing, a retired version, or one not minted yet.
var otherVersions = map[string]string{
	"proto absent":       `{}`,
	"proto 0":            `{"proto":0}`,
	"proto 1":            `{"proto":1}`,
	"proto 2":            `{"proto":2}`,
	"proto 3":            `{"proto":3}`,
	"proto current+1":    `{"proto":` + strconv.Itoa(ProtoSession+1) + `}`,
	"proto not a number": `{"proto":"4"}`,
}

// frameJSON frames a literal JSON document the way WriteFrame would.
func frameJSON(t *testing.T, doc string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, json.RawMessage(doc)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHandshakeRejectsOtherVersion: the handshake is outside input, and
// the only thing standing between a stale binary and frames it would
// misdecode. Whatever a peer offers other than exactly this version, the
// instance server closes the connection without serving, and the
// controller fails the dial with an error naming both versions — and
// neither leaves a goroutine serving the refused peer.
func TestHandshakeRejectsOtherVersion(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	query, err := AppendRequestFrame(nil, Request{ID: 1, Model: m.Name, Batch: 10})
	if err != nil {
		t.Fatal(err)
	}

	// Instance server: the first frame after the banner is not this
	// version's ack.
	firstFrames := map[string][]byte{
		"first frame is a JSON query":   frameJSON(t, `{"id":1,"model":"NCF","batch":10}`),
		"first frame is a binary query": query,
		"first frame is garbage":        []byte("\x00\x00\x00\x02{{"),
	}
	for name, doc := range otherVersions {
		firstFrames["ack with "+name] = frameJSON(t, doc)
	}
	for name, first := range firstFrames {
		t.Run("instance server/"+name, func(t *testing.T) {
			s, err := NewInstanceServer(cloud.G4dnXlarge.Name, m, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			conn, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			var hello Hello
			if err := ReadFrame(conn, &hello); err != nil {
				t.Fatal(err)
			}
			if hello.Proto != ProtoSession {
				t.Fatalf("announced wire version %d, want %d", hello.Proto, ProtoSession)
			}
			// The refused handshake, then a well-formed query behind it: a
			// server that kept reading would answer.
			if _, err := conn.Write(append(append([]byte{}, first...), query...)); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if p, err := ReadRawFrame(conn, nil); err == nil {
				t.Fatalf("refused peer was sent a frame: %v", p)
			} else if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatal("connection still open after a refused handshake")
			}
			// Close waits for the serve goroutines and does not force
			// connections shut, so it returns only because the refused
			// connection's goroutine already exited on its own.
			closed := make(chan error, 1)
			go func() { closed <- s.Close() }()
			select {
			case err := <-closed:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a goroutine is still serving the refused connection")
			}
		})
	}

	// Controller dial: the instance's banner announces something else.
	for name, doc := range otherVersions {
		t.Run("controller dial/"+name, func(t *testing.T) {
			ln := listenLocal(t)
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
				banner["type_name"], banner["model"] = cloud.G4dnXlarge.Name, m.Name
				if err := WriteFrame(conn, banner); err != nil {
					sawEOF <- err
					return
				}
				// The controller must hang up without acking or dispatching.
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				_, err = ReadRawFrame(conn, nil)
				sawEOF <- err
			}()
			ctrl, err := NewController(m.Name, kairosPolicy(m, []string{cloud.G4dnXlarge.Name}), 1, m.Latency, []string{ln.Addr().String()})
			if err == nil {
				ctrl.Close()
				t.Fatal("dial accepted an instance of another wire version")
			}
			if name != "proto not a number" {
				var banner struct{ Proto int }
				json.Unmarshal([]byte(doc), &banner)
				for _, want := range []string{
					"speaks wire version " + strconv.Itoa(banner.Proto),
					"controller speaks " + strconv.Itoa(ProtoSession),
				} {
					if !strings.Contains(err.Error(), want) {
						t.Fatalf("error %q does not say %q", err, want)
					}
				}
			}
			if err := <-sawEOF; err == nil {
				t.Fatal("controller sent a frame to an instance it refused")
			} else if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatal("controller left the refused connection open")
			}
		})
	}
}
