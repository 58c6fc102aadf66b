package ingress

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"kairos/internal/obs"
	"kairos/internal/server"
)

// The HTTP transport is served by a hand-rolled HTTP/1.1 loop instead of
// net/http: the stock server costs ~90 allocations per request (request
// and header objects, context, response bookkeeping), which is two
// orders of magnitude over the front door's per-submit budget. The loop
// speaks exactly what the front door needs — identity-encoded bodies,
// keep-alive, Expect: 100-continue — and answers anything else with a
// clean close. It is the front door's only HTTP stack; net/http is
// imported for its Status* constants alone.

// readHeaderTimeout bounds how long one request (line, headers, and
// body) may trickle in — the slowloris guard. It also caps keep-alive
// idle time, which is what closes parked connections at shutdown.
const readHeaderTimeout = 10 * time.Second

// maxSubmitBody bounds a /submit body, mirroring the binary transport's
// MaxFrame: a front door should never buffer megabytes for a request
// whose real payload is a model name and a batch size.
const maxSubmitBody = server.MaxFrame

// httpCtx is the pooled per-connection scratch: the buffered reader and
// every byte slice a request touches. A steady-state request allocates
// nothing — it reuses these across requests and connections.
type httpCtx struct {
	br     *bufio.Reader
	body   []byte // request body
	rep    []byte // encoded submitReply
	out    []byte // full response (status line + headers + body)
	tok    []byte // bearer token copy (survives header-buffer reuse)
	fields submitFields
}

var httpCtxPool = sync.Pool{New: func() any {
	return &httpCtx{br: bufio.NewReaderSize(nil, 16<<10)}
}}

// routes of the hand-rolled loop; resolved from the request line before
// the path's backing buffer is invalidated by further reads.
const (
	routeSubmit = iota
	routeStats
	routeShardz
	routeHealthz
	routeUnknown
)

func (s *Server) serveHTTPConn(conn net.Conn, sh *shard) {
	defer conn.Close()
	defer s.tracker.Track(conn)()
	hc := httpCtxPool.Get().(*httpCtx)
	hc.br.Reset(conn)
	defer func() {
		hc.br.Reset(nil) // don't pin the conn (or its TLS state) in the pool
		httpCtxPool.Put(hc)
	}()
	for {
		select {
		case <-s.closed:
			return
		default:
		}
		conn.SetReadDeadline(time.Now().Add(readHeaderTimeout))
		if !s.serveHTTPRequest(conn, sh, hc) {
			return
		}
	}
}

// serveHTTPRequest reads and answers one request; false closes the
// connection (read error, protocol violation, or Connection: close).
func (s *Server) serveHTTPRequest(conn net.Conn, sh *shard, hc *httpCtx) bool {
	t0 := time.Now()
	line, err := readHTTPLine(hc.br)
	if err != nil {
		return false
	}
	sp1 := bytes.IndexByte(line, ' ')
	if sp1 < 0 {
		return false
	}
	method := line[:sp1]
	rest := line[sp1+1:]
	sp2 := bytes.IndexByte(rest, ' ')
	if sp2 < 0 {
		return false
	}
	path := rest[:sp2]
	keepAlive := bytes.Equal(rest[sp2+1:], http11)
	isPost := bytes.Equal(method, []byte("POST"))
	route := routeUnknown
	switch {
	case bytes.Equal(path, []byte("/submit")):
		route = routeSubmit
	case bytes.Equal(path, []byte("/stats")):
		route = routeStats
	case bytes.Equal(path, []byte("/shardz")):
		route = routeShardz
	case bytes.Equal(path, []byte("/healthz")):
		route = routeHealthz
	}
	// Headers. line/path alias the bufio buffer, so the route and method
	// were latched above before these reads invalidate them.
	var contentLen int64 = -1
	var chunked, expect100 bool
	hc.tok = hc.tok[:0]
	hasTok := false
	for {
		h, err := readHTTPLine(hc.br)
		if err != nil {
			return false
		}
		if len(h) == 0 {
			break
		}
		colon := bytes.IndexByte(h, ':')
		if colon < 0 {
			continue
		}
		key, val := h[:colon], trimOWS(h[colon+1:])
		switch {
		case asciiEqualFold(key, "content-length"):
			n, err := strconv.ParseInt(string(val), 10, 64)
			if err != nil || n < 0 {
				return false
			}
			contentLen = n
		case asciiEqualFold(key, "authorization"):
			if len(val) > 7 && asciiEqualFold(val[:7], "bearer ") {
				hc.tok = append(hc.tok[:0], trimOWS(val[7:])...)
				hasTok = true
			}
		case asciiEqualFold(key, "transfer-encoding"):
			chunked = true
		case asciiEqualFold(key, "expect"):
			expect100 = asciiEqualFold(val, "100-continue")
		case asciiEqualFold(key, "connection"):
			if asciiEqualFold(val, "close") {
				keepAlive = false
			}
		}
	}
	if chunked {
		// Identity bodies only; a chunked /submit is outside the fast
		// path's contract and net/http clients only chunk unknown lengths.
		s.writeHTTPError(conn, hc, http.StatusNotImplemented, "ingress: chunked bodies not supported")
		return false
	}
	if route != routeSubmit || !isPost {
		// Bodyless routes; a body would desync the keep-alive stream, so
		// skip it when one is declared.
		if contentLen > 0 {
			if contentLen > maxSubmitBody {
				return false
			}
			if _, err := hc.br.Discard(int(contentLen)); err != nil {
				return false
			}
		}
		return s.serveHTTPCold(conn, hc, route, isPost, keepAlive)
	}
	if contentLen < 0 {
		s.writeHTTPError(conn, hc, http.StatusLengthRequired, "ingress: length required")
		return false
	}
	if contentLen > maxSubmitBody {
		// Satellite of MaxFrame: don't buffer an oversized body at all.
		s.writeHTTPError(conn, hc, http.StatusRequestEntityTooLarge, "ingress: body too large")
		return false
	}
	if expect100 {
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if _, err := conn.Write(continue100); err != nil {
			return false
		}
	}
	if cap(hc.body) < int(contentLen) {
		hc.body = make([]byte, contentLen)
	}
	hc.body = hc.body[:contentLen]
	if _, err := io.ReadFull(hc.br, hc.body); err != nil {
		return false
	}
	var tok []byte
	if hasTok {
		tok = hc.tok
	}
	status, retry := s.submitHTTP(sh, hc, tok, t0)
	return s.writeHTTPResponse(conn, hc, status, hc.rep, retry, keepAlive) && keepAlive
}

// submitHTTP runs the admission pipeline for one parsed /submit body and
// encodes the reply into hc.rep. The check order matches the TCP path:
// auth → model → rate limit → queue bound.
func (s *Server) submitHTTP(sh *shard, hc *httpCtx, tok []byte, t0 time.Time) (status int, retryAfter bool) {
	f := &hc.fields
	if err := parseSubmitBody(hc.body, f); err != nil {
		hc.rep = appendSubmitReply(hc.rep[:0], nil, 0, 0, "", "ingress: bad request: "+err.Error())
		return http.StatusBadRequest, false
	}
	var bucket *clientBucket
	if s.auth != nil {
		var ok bool
		if bucket, ok = s.auth.lookup(tok); !ok {
			s.unrouted.Add(1)
			hc.rep = appendSubmitReply(hc.rep[:0], f.model, f.batch, 0, "", UnauthorizedMsg)
			return http.StatusUnauthorized, false
		}
	}
	mf := s.models[string(f.model)]
	if mf == nil {
		s.unrouted.Add(1)
		hc.rep = appendSubmitReply(hc.rep[:0], f.model, f.batch, 0, "",
			fmt.Sprintf("ingress: unknown model %q (serving %v)", f.model, s.order))
		return http.StatusBadRequest, false
	}
	fs := &mf.shards[sh.id]
	if s.auth != nil && s.auth.limited(bucket) {
		fs.limited.Add(1)
		hc.rep = appendSubmitReply(hc.rep[:0], f.model, f.batch, 0, "", RateLimitedMsg)
		return http.StatusTooManyRequests, true
	}
	if !fs.admit(s.perShard) {
		fs.rejected.Add(1)
		hc.rep = appendSubmitReply(hc.rep[:0], f.model, f.batch, 0, "", QueueFullMsg)
		return http.StatusTooManyRequests, true
	}
	fs.submitted.Add(1)
	fs.http.Add(1)
	shardID := uint32(sh.id)
	mf.mo.RecordShard(obs.StageAdmit, shardID, time.Since(t0))
	res := s.ctrl.SubmitWaitOpts(mf.name, int(f.batch), submitOpts(f.session, f.deadlineMS, t0))
	if res.Err != nil {
		fs.failed.Add(1)
	} else {
		fs.completed.Add(1)
	}
	fs.queue.Add(-1)
	mf.mo.RecordShard(obs.StageIngress, shardID, time.Since(t0))
	if res.Err != nil {
		hc.rep = appendSubmitReply(hc.rep[:0], f.model, f.batch, 0, "", res.Err.Error())
		return http.StatusBadGateway, false
	}
	hc.rep = appendSubmitReply(hc.rep[:0], f.model, f.batch, res.LatencyMS, res.Instance, "")
	return http.StatusOK, false
}

// serveHTTPCold answers the non-hot routes; allocation is fine here.
func (s *Server) serveHTTPCold(conn net.Conn, hc *httpCtx, route int, isPost, keepAlive bool) bool {
	var status int
	var body []byte
	switch {
	case route == routeSubmit: // non-POST
		status = http.StatusMethodNotAllowed
		body, _ = json.Marshal(submitReply{Error: "ingress: POST only"})
	case isPost, route == routeUnknown:
		status = http.StatusNotFound
		body = []byte(`{"error":"ingress: not found"}`)
	case route == routeStats:
		status = http.StatusOK
		body, _ = json.Marshal(s.Stats())
	case route == routeShardz:
		status = http.StatusOK
		body, _ = json.Marshal(s.ShardStats())
	default: // routeHealthz
		status = http.StatusOK
		body, _ = json.Marshal(map[string]any{"ok": true, "models": s.order})
	}
	return s.writeHTTPResponse(conn, hc, status, body, false, keepAlive) && keepAlive
}

var (
	http11      = []byte("HTTP/1.1")
	continue100 = []byte("HTTP/1.1 100 Continue\r\n\r\n")
)

// statusLines preformats every status the front door emits.
var statusLines = map[int]string{
	http.StatusOK:                    "HTTP/1.1 200 OK\r\n",
	http.StatusBadRequest:            "HTTP/1.1 400 Bad Request\r\n",
	http.StatusUnauthorized:          "HTTP/1.1 401 Unauthorized\r\n",
	http.StatusNotFound:              "HTTP/1.1 404 Not Found\r\n",
	http.StatusMethodNotAllowed:      "HTTP/1.1 405 Method Not Allowed\r\n",
	http.StatusLengthRequired:        "HTTP/1.1 411 Length Required\r\n",
	http.StatusRequestEntityTooLarge: "HTTP/1.1 413 Request Entity Too Large\r\n",
	http.StatusTooManyRequests:       "HTTP/1.1 429 Too Many Requests\r\n",
	http.StatusNotImplemented:        "HTTP/1.1 501 Not Implemented\r\n",
	http.StatusBadGateway:            "HTTP/1.1 502 Bad Gateway\r\n",
}

// writeHTTPResponse assembles the full response in hc.out and writes it
// with one syscall. false means the write failed (close the conn).
func (s *Server) writeHTTPResponse(conn net.Conn, hc *httpCtx, status int, body []byte, retryAfter, keepAlive bool) bool {
	sl, ok := statusLines[status]
	if !ok {
		sl = "HTTP/1.1 500 Internal Server Error\r\n"
	}
	hc.out = append(hc.out[:0], sl...)
	hc.out = append(hc.out, "Content-Type: application/json\r\nContent-Length: "...)
	hc.out = strconv.AppendInt(hc.out, int64(len(body)), 10)
	hc.out = append(hc.out, '\r', '\n')
	if retryAfter {
		hc.out = append(hc.out, "Retry-After: 1\r\n"...)
	}
	if !keepAlive {
		hc.out = append(hc.out, "Connection: close\r\n"...)
	}
	hc.out = append(hc.out, '\r', '\n')
	hc.out = append(hc.out, body...)
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err := conn.Write(hc.out)
	return err == nil
}

// writeHTTPError answers a protocol-level failure (always closes).
func (s *Server) writeHTTPError(conn net.Conn, hc *httpCtx, status int, msg string) {
	hc.rep = appendSubmitReply(hc.rep[:0], nil, 0, 0, "", msg)
	s.writeHTTPResponse(conn, hc, status, hc.rep, false, false)
}

// readHTTPLine returns one CRLF-terminated line without its terminator,
// aliasing the reader's buffer. A line longer than the buffer is a
// protocol violation (16KB of request line or one header).
func readHTTPLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	n := len(line) - 1
	if n > 0 && line[n-1] == '\r' {
		n--
	}
	return line[:n], nil
}

// trimOWS strips optional whitespace around a header value.
func trimOWS(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}

// asciiEqualFold reports b == s ignoring ASCII case, without allocating.
func asciiEqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c, d := b[i], s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if 'A' <= d && d <= 'Z' {
			d += 'a' - 'A'
		}
		if c != d {
			return false
		}
	}
	return true
}
