// Package server is the network serving path of the reproduction: the
// paper's central controller sends optimized inference requests to
// individual instance servers over gRPC (Sec. 6); here the transport is a
// length-prefixed protocol over TCP built only on the standard library.
// The handshake (Hello, HelloAck) is JSON; every frame after it is one of
// two fixed-width binary layouts, a request and a reply. It exists so the
// system runs end to end as real processes — the throughput experiments
// use the deterministic simulator instead.
package server

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// MaxFrame bounds a protocol frame; requests and replies are tiny, so
// anything larger indicates a corrupted stream.
const MaxFrame = 1 << 16

// ProtoSession is the wire version, the only one: the serving side
// announces it in its Hello, the dialing side echoes it in its HelloAck,
// and either side closes the connection on any other value — every peer
// is built from this repository, so a different number is a stale binary
// to refuse, not a dialect to speak. Versions 1–3 were the negotiated
// layouts this one replaced; the number is never reused.
const ProtoSession = 4

// Request asks an instance server to serve one batched query.
type Request struct {
	// ID correlates the reply.
	ID int64
	// Model names the model the query targets; servers reject requests for
	// a model they do not host. Empty skips the check.
	Model string
	// Batch is the query batch size.
	Batch int
	// Trace marks a sampled query: the instance measures its serve-slot
	// wait and echoes it in a traced reply.
	Trace bool
	// Session is an optional client session key for affinity routing:
	// queries with the same key prefer the same instance. Only the
	// ingress front door interprets it.
	Session string
	// DeadlineMS bounds how long the query may wait for dispatch,
	// relative to its arrival at the front door. 0 means no deadline.
	DeadlineMS int64
}

// Reply reports a served query.
type Reply struct {
	// ID echoes the request.
	ID int64
	// ServiceMS is the server-side service time in milliseconds.
	ServiceMS float64
	// Err carries a server-side failure, empty on success.
	Err string
	// Traced echoes Request.Trace.
	Traced bool
	// WaitNS is the wall time a traced request waited for the instance's
	// serve slot (receive → service start), measured instance-side.
	WaitNS int64
}

// Hello is the banner the serving side (an instance server, the ingress)
// sends on connect, announcing what it is and the wire version it speaks.
type Hello struct {
	// TypeName is the cloud instance type, e.g. "g4dn.xlarge".
	TypeName string `json:"type_name"`
	// Model is the served model name.
	Model string `json:"model"`
	// Proto is the wire version; a peer refuses anything but its own.
	Proto int `json:"proto"`
}

// HelloAck is the dialing side's answer and must be the first frame it
// sends: the same wire version, or the serving side closes the connection.
type HelloAck struct {
	Proto int `json:"proto"`
	// Token authenticates the client to a front door configured with a
	// static token list; peers that enforce no auth ignore it.
	Token string `json:"token,omitempty"`
}

// WriteFrame writes one length-prefixed JSON message (handshake frames) in
// one write.
func WriteFrame(w io.Writer, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("server: encoding frame: %w", err)
	}
	if len(payload) > MaxFrame {
		return fmt.Errorf("server: frame of %d bytes exceeds limit", len(payload))
	}
	frame := binary.BigEndian.AppendUint32(make([]byte, 0, 4+len(payload)), uint32(len(payload)))
	_, err = w.Write(append(frame, payload...))
	return err
}

// ReadFrame reads one length-prefixed JSON message into v.
func ReadFrame(r io.Reader, v any) error {
	payload, err := readRawFrame(r, nil)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("server: decoding frame: %w", err)
	}
	return nil
}

// ReadRawFrame reads one length-prefixed payload without decoding it,
// reusing buf when it is large enough. The returned slice is only valid
// until the next call with the same buffer. Front-ends that speak the
// binary codec (internal/ingress) pair it with DecodeRequestView /
// DecodeReplyFrame.
func ReadRawFrame(r io.Reader, buf []byte) ([]byte, error) {
	return readRawFrame(r, buf)
}

// readRawFrame reads one length-prefixed payload, reusing buf when it is
// large enough. The returned slice is only valid until the next call with
// the same buffer.
func readRawFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("server: frame of %d bytes exceeds limit", n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Binary payloads: a kind byte followed by fixed-width big-endian fields,
// with the variable strings length-prefixed. One layout per direction:
//
//	Request: kind(1) id(8) batch(4) deadlineMS(4) flags(1) modelLen(1) model sessLen(1) sess
//	Reply:   kind(1) id(8) serviceMS(8) waitNS(8) flags(1) errLen(2) err
//
// The deadline is bounded at ~49 days (uint32 milliseconds) — deadlines
// are per-request, not epochs. flagTraced is the only flag in either
// direction; a frame with any other bit set is malformed, so every
// accepted payload re-encodes to itself. Kind bytes are never reused for
// a different layout: 0x05 is version 3's session request, unchanged, and
// 0x06 is new with this version's reply.
const (
	frameRequest = 0x05
	frameReply   = 0x06

	flagTraced = 0x01

	requestFixed = 1 + 8 + 4 + 4 + 1 + 1 + 1 // a request with empty strings
	replyFixed   = 1 + 8 + 8 + 8 + 1 + 2     // a reply with no error
)

// Validate reports why req cannot be encoded: a Writer fails its
// connection on such a frame, so callers with untrusted fields check first.
func (req Request) Validate() error {
	if len(req.Model) > math.MaxUint8 {
		return fmt.Errorf("server: model name of %d bytes exceeds limit", len(req.Model))
	}
	if req.Batch < math.MinInt32 || req.Batch > math.MaxInt32 {
		return fmt.Errorf("server: batch %d outside the wire range", req.Batch)
	}
	if len(req.Session) > math.MaxUint8 {
		return fmt.Errorf("server: session key of %d bytes exceeds limit", len(req.Session))
	}
	if req.DeadlineMS < 0 || req.DeadlineMS > math.MaxUint32 {
		return fmt.Errorf("server: deadline %dms outside the wire range", req.DeadlineMS)
	}
	return nil
}

// AppendRequestFrame appends the length-prefixed binary encoding of req.
func AppendRequestFrame(buf []byte, req Request) ([]byte, error) {
	if err := req.Validate(); err != nil {
		return buf, err
	}
	n := requestFixed + len(req.Model) + len(req.Session)
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	buf = append(buf, frameRequest)
	buf = binary.BigEndian.AppendUint64(buf, uint64(req.ID))
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(req.Batch)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(req.DeadlineMS))
	var flags byte
	if req.Trace {
		flags |= flagTraced
	}
	buf = append(buf, flags)
	buf = append(buf, byte(len(req.Model)))
	buf = append(buf, req.Model...)
	buf = append(buf, byte(len(req.Session)))
	buf = append(buf, req.Session...)
	return buf, nil
}

// RequestView is a zero-copy decoded request: Model and Session alias
// the frame buffer and are only valid until it is reused.
type RequestView struct {
	ID         int64
	Batch      int
	Model      []byte
	Session    []byte
	DeadlineMS int64
	Traced     bool
}

// DecodeRequestView parses a request payload without copying.
func DecodeRequestView(p []byte) (RequestView, error) {
	var rv RequestView
	if len(p) < requestFixed || p[0] != frameRequest || p[17]&^flagTraced != 0 {
		return rv, fmt.Errorf("server: malformed request frame (%d bytes)", len(p))
	}
	mlen := int(p[18])
	if len(p) < requestFixed+mlen {
		return rv, fmt.Errorf("server: malformed request frame (%d bytes)", len(p))
	}
	slen := int(p[19+mlen])
	if len(p) != requestFixed+mlen+slen {
		return rv, fmt.Errorf("server: request frame length %d, want %d", len(p), requestFixed+mlen+slen)
	}
	rv.ID = int64(binary.BigEndian.Uint64(p[1:9]))
	rv.Batch = int(int32(binary.BigEndian.Uint32(p[9:13])))
	rv.DeadlineMS = int64(binary.BigEndian.Uint32(p[13:17]))
	rv.Traced = p[17]&flagTraced != 0
	rv.Model = p[19 : 19+mlen]
	rv.Session = p[20+mlen:]
	return rv, nil
}

// AppendReplyFrame appends the length-prefixed binary encoding of rep.
func AppendReplyFrame(buf []byte, rep Reply) ([]byte, error) {
	if len(rep.Err) > math.MaxUint16 {
		return buf, fmt.Errorf("server: reply error of %d bytes exceeds limit", len(rep.Err))
	}
	n := replyFixed + len(rep.Err)
	if n > MaxFrame {
		return buf, fmt.Errorf("server: frame of %d bytes exceeds limit", n)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	buf = append(buf, frameReply)
	buf = binary.BigEndian.AppendUint64(buf, uint64(rep.ID))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(rep.ServiceMS))
	buf = binary.BigEndian.AppendUint64(buf, uint64(rep.WaitNS))
	var flags byte
	if rep.Traced {
		flags |= flagTraced
	}
	buf = append(buf, flags)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(rep.Err)))
	buf = append(buf, rep.Err...)
	return buf, nil
}

// DecodeReplyFrame parses a reply payload. The error string is copied
// (replies carry one only on failure), so the result outlives p.
func DecodeReplyFrame(p []byte) (Reply, error) {
	if len(p) < replyFixed || p[0] != frameReply || p[25]&^flagTraced != 0 {
		return Reply{}, fmt.Errorf("server: malformed reply frame (%d bytes)", len(p))
	}
	elen := int(binary.BigEndian.Uint16(p[26:28]))
	if len(p) != replyFixed+elen {
		return Reply{}, fmt.Errorf("server: reply frame length %d, want %d", len(p), replyFixed+elen)
	}
	rep := Reply{
		ID:        int64(binary.BigEndian.Uint64(p[1:9])),
		ServiceMS: math.Float64frombits(binary.BigEndian.Uint64(p[9:17])),
		WaitNS:    int64(binary.BigEndian.Uint64(p[17:25])),
		Traced:    p[25]&flagTraced != 0,
	}
	if elen > 0 {
		rep.Err = string(p[28:])
	}
	return rep, nil
}
