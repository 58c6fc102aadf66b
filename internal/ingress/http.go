package ingress

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

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
	routeHealthz
	routeUnknown
)

func (s *Server) serveHTTPConn(conn net.Conn) {
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
		if !s.serveHTTPRequest(conn, hc) {
			return
		}
	}
}

// serveHTTPRequest reads and answers one request; false closes the
// connection (read error, protocol violation, or Connection: close).
func (s *Server) serveHTTPRequest(conn net.Conn, hc *httpCtx) bool {
	t0 := time.Now()
	line, err := readHTTPLine(hc.br)
	if err != nil {
		return false
	}
	method, rest, ok1 := bytes.Cut(line, space)
	path, proto, ok2 := bytes.Cut(rest, space)
	if !ok1 || !ok2 {
		return false
	}
	keepAlive := string(proto) == "HTTP/1.1"
	isPost := string(method) == "POST"
	route := routeUnknown
	switch string(path) {
	case "/submit":
		route = routeSubmit
	case "/stats":
		route = routeStats
	case "/healthz":
		route = routeHealthz
	}
	// Headers. line/path alias the bufio buffer, so the route and method
	// were latched above before these reads invalidate them.
	var contentLen int64 = -1
	var chunked, expect100 bool
	hc.tok = hc.tok[:0] // no (or an empty) bearer token matches no client
	for {
		h, err := readHTTPLine(hc.br)
		if err != nil {
			return false
		}
		if len(h) == 0 {
			break
		}
		key, val, ok := bytes.Cut(h, colon)
		// A line with no colon or no name, or with whitespace between the
		// name and the colon (RFC 7230 §3.2.4: "MUST reject"), is one a
		// proxy in front may read differently — "Content-Length : 5" as a
		// length — so skipping it would let the two disagree about where
		// the next pipelined request starts.
		if !ok || len(key) == 0 || key[len(key)-1] == ' ' || key[len(key)-1] == '\t' {
			s.writeHTTPError(conn, hc, http.StatusBadRequest, "ingress: malformed header line")
			return false
		}
		val = trimOWS(val)
		switch {
		case asciiEqualFold(key, "content-length"):
			// A second Content-Length that disagrees with the first, or a
			// form a stricter parser would refuse, means a proxy in front
			// and this server could disagree about where the next
			// pipelined request starts: refuse and close, never guess.
			n, ok := parseContentLength(val)
			if !ok || (contentLen >= 0 && n != contentLen) {
				s.writeHTTPError(conn, hc, http.StatusBadRequest, "ingress: bad Content-Length")
				return false
			}
			contentLen = n
		case asciiEqualFold(key, "authorization"):
			if len(val) > 7 && asciiEqualFold(val[:7], "bearer ") {
				hc.tok = append(hc.tok[:0], trimOWS(val[7:])...)
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
	status, retry := s.submitHTTP(hc, t0)
	return s.writeHTTPResponse(conn, hc, status, hc.rep, retry, keepAlive) && keepAlive
}

// submitHTTP parses one /submit body, runs it through admit, the
// controller and settle, and encodes the reply into hc.rep.
func (s *Server) submitHTTP(hc *httpCtx, t0 time.Time) (status int, retryAfter bool) {
	f := &hc.fields
	if err := parseSubmitBody(hc.body, f); err != nil {
		hc.rep = appendSubmitReply(hc.rep[:0], nil, 0, 0, "", "ingress: bad request: "+err.Error())
		return http.StatusBadRequest, false
	}
	mf, reject := s.admit(s.auth.identify(hc.tok), f.model, false, t0)
	if mf == nil {
		hc.rep = appendSubmitReply(hc.rep[:0], f.model, f.batch, 0, "", reject)
		switch reject {
		case UnauthorizedMsg:
			return http.StatusUnauthorized, false
		case RateLimitedMsg, QueueFullMsg:
			return http.StatusTooManyRequests, true
		default: // unknown model
			return http.StatusBadRequest, false
		}
	}
	// The connection's own goroutine waits the query out: HTTP/1.1 answers
	// in order, so there is nothing else for it to do meanwhile.
	res := s.ctrl.SubmitWaitOpts(mf.name, int(f.batch), submitOpts(f.session, f.deadlineMS, t0))
	mf.settle(res, t0)
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
		body = appendSubmitReply(nil, nil, 0, 0, "", "ingress: POST only")
	case isPost, route == routeUnknown:
		status = http.StatusNotFound
		body = []byte(`{"error":"ingress: not found"}`)
	case route == routeStats:
		status = http.StatusOK
		body, _ = json.Marshal(s.Stats())
	default: // routeHealthz
		status = http.StatusOK
		body, _ = json.Marshal(map[string]any{"ok": true, "models": s.order})
	}
	return s.writeHTTPResponse(conn, hc, status, body, false, keepAlive) && keepAlive
}

var (
	space       = []byte(" ")
	colon       = []byte(":")
	cr          = []byte("\r")
	continue100 = []byte("HTTP/1.1 100 Continue\r\n\r\n")
)

// writeHTTPResponse assembles the full response in hc.out and writes it
// with one syscall. false means the write failed (close the conn).
func (s *Server) writeHTTPResponse(conn net.Conn, hc *httpCtx, status int, body []byte, retryAfter, keepAlive bool) bool {
	hc.out = append(hc.out[:0], "HTTP/1.1 "...)
	hc.out = strconv.AppendInt(hc.out, int64(status), 10)
	hc.out = append(hc.out, ' ')
	hc.out = append(hc.out, http.StatusText(status)...)
	hc.out = append(hc.out, "\r\nContent-Type: application/json\r\nContent-Length: "...)
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

// parseContentLength accepts exactly 1*DIGIT (RFC 9110 §8.6): no sign, no
// list, nothing strconv would additionally tolerate. Every value beyond
// the largest body the door accepts reads as that bound plus one.
func parseContentLength(val []byte) (n int64, ok bool) {
	for _, c := range val {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = min(n*10+int64(c-'0'), maxSubmitBody+1)
	}
	return n, len(val) > 0
}

// readHTTPLine returns one CRLF-terminated line without its terminator,
// aliasing the reader's buffer. A line longer than the buffer is a
// protocol violation (16KB of request line or one header).
func readHTTPLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(line[:len(line)-1], cr), nil
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

// asciiEqualFold reports whether b is lower, ignoring ASCII case and
// without allocating. lower must be lower case.
func asciiEqualFold(b []byte, lower string) bool {
	if len(b) != len(lower) {
		return false
	}
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}
