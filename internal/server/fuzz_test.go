package server

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// The two decoders face the network, so they are searched, not only
// sampled: on any input they must not panic or look past the payload, and
// every payload they accept must be the canonical encoding of what they
// returned — append(decode(p)) == p and decode(append(x)) == x — so no two
// byte strings mean the same frame and nothing on the wire is ignored.
// The seed corpus is testdata/fuzz/; CI runs each target for ten seconds.

// exact returns p with no spare capacity: a decoder that slices past
// len(p) panics instead of quietly reading a neighbour's bytes.
func exact(p []byte) []byte { return append(make([]byte, 0, len(p)), p...) }

// unframe splits an Append*Frame result into its length prefix and payload.
func unframe(t *testing.T, frame []byte) []byte {
	t.Helper()
	if len(frame) < 4 || int(binary.BigEndian.Uint32(frame)) != len(frame)-4 {
		t.Fatalf("bad length prefix on %d-byte frame %x", len(frame), frame)
	}
	return frame[4:]
}

// viewRequest copies a decoded view into the Request that encodes to it.
func viewRequest(rv RequestView) Request {
	return Request{
		ID: rv.ID, Model: string(rv.Model), Batch: rv.Batch, Trace: rv.Traced,
		Session: string(rv.Session), DeadlineMS: rv.DeadlineMS,
	}
}

func FuzzDecodeRequestView(f *testing.F) {
	for _, req := range []Request{
		{},
		{ID: 1, Model: "NCF", Batch: 64},
		{ID: -1, Model: "MT-WND", Batch: 1000, Trace: true, Session: "alice", DeadlineMS: 2000},
	} {
		frame, err := AppendRequestFrame(nil, req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		p = exact(p)
		rv, err := DecodeRequestView(p)
		if err != nil {
			return
		}
		x := viewRequest(rv)
		frame, err := AppendRequestFrame(nil, x)
		if err != nil {
			t.Fatalf("accepted %x but cannot re-encode %+v: %v", p, x, err)
		}
		q := unframe(t, frame)
		if !bytes.Equal(q, p) {
			t.Fatalf("accepted %x re-encodes as %x", p, q)
		}
		rv2, err := DecodeRequestView(q)
		if err != nil {
			t.Fatalf("own encoding %x rejected: %v", q, err)
		}
		if y := viewRequest(rv2); y != x {
			t.Fatalf("decode(append(x)) = %+v, x = %+v", y, x)
		}
	})
}

func FuzzDecodeReplyFrame(f *testing.F) {
	for _, rep := range []Reply{
		{},
		{ID: 1, ServiceMS: 11.348},
		{ID: -1, ServiceMS: math.Inf(1), Err: DeadlineExceededMsg, Traced: true, WaitNS: 42},
	} {
		frame, err := AppendReplyFrame(nil, rep)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		p = exact(p)
		x, err := DecodeReplyFrame(p)
		if err != nil {
			return
		}
		frame, err := AppendReplyFrame(nil, x)
		if err != nil {
			t.Fatalf("accepted %x but cannot re-encode %+v: %v", p, x, err)
		}
		q := unframe(t, frame)
		if !bytes.Equal(q, p) {
			t.Fatalf("accepted %x re-encodes as %x", p, q)
		}
		y, err := DecodeReplyFrame(q)
		if err != nil {
			t.Fatalf("own encoding %x rejected: %v", q, err)
		}
		// ServiceMS may be a NaN, which equals nothing: compare its bits.
		xb, yb := math.Float64bits(x.ServiceMS), math.Float64bits(y.ServiceMS)
		x.ServiceMS, y.ServiceMS = 0, 0
		if y != x || yb != xb {
			t.Fatalf("decode(append(x)) = %+v (%#x), x = %+v (%#x)", y, yb, x, xb)
		}
	})
}
