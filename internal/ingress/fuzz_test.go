package ingress

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The front door's two parsers of untrusted bytes, each fuzzed against a
// reference: the /submit JSON codec against encoding/json, the HTTP
// request scanner against this file's own statement of where a request
// ends. Seed corpora live in testdata/fuzz; CI runs each target for 10 s.

// submitRequest is the POST /submit body, as encoding/json sees it.
type submitRequest struct {
	Model string `json:"model"`
	Batch int    `json:"batch"`
	// Session is an optional session-affinity key: submissions sharing it
	// prefer the same serving instance.
	Session string `json:"session,omitempty"`
	// DeadlineMS bounds how long the query may wait for dispatch; 0 means
	// no deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// submitReply is the POST /submit response body, as encoding/json sees it.
type submitReply struct {
	Model string `json:"model"`
	Batch int    `json:"batch"`
	// LatencyMS is the end-to-end serving latency in model milliseconds.
	LatencyMS float64 `json:"latency_ms"`
	// Instance is the serving instance type.
	Instance string `json:"instance,omitempty"`
	// Error carries a rejection or serving failure; empty on success.
	Error string `json:"error,omitempty"`
}

// FuzzSubmitJSON holds the hand-rolled /submit codec to encoding/json:
// the two accept and reject the same bodies, decode the same four fields,
// and appendSubmitReply writes the bytes json.Marshal would. Where the
// hand-rolled side differs on purpose the difference is named below and
// asserted, not skipped.
func FuzzSubmitJSON(f *testing.F) {
	f.Add([]byte(`{"model":"NCF","batch":16,"session":"u-1","deadline_ms":250}`), 1.25)
	f.Fuzz(func(t *testing.T, data []byte, latencyMS float64) {
		var got submitFields
		ours := parseSubmitBody(bytes.Clone(data), &got) // the parser unescapes in place
		var want submitRequest
		theirs := json.Unmarshal(data, &want)

		switch {
		case string(bytes.TrimSpace(data)) == "null":
			// Divergence "top-level null": encoding/json treats it as a
			// no-op; the door wants an object.
			if ours == nil {
				t.Fatalf("top-level null accepted")
			}
			return
		case hasFoldedKey(data):
			// Divergence "case-folded key": encoding/json also matches
			// "Model" (and "ſession"); the door matches exact names only
			// and treats the rest as unknown fields. All that can be held
			// to the reference is that only JSON is ever accepted.
			if ours == nil && !json.Valid(data) {
				t.Fatalf("accepted invalid JSON %q", data)
			}
			return
		case ours != nil && theirs == nil && nesting(data) >= 34:
			// Divergence "nesting bound": unknown fields nest at most 32
			// deep (encoding/json: 10000).
			return
		}
		if (ours == nil) != (theirs == nil) {
			t.Fatalf("accept/reject disagreement on %q: ours %v, encoding/json %v", data, ours, theirs)
		}
		if ours != nil {
			return
		}
		// Divergence "bytes pass through": a string's bytes that are not
		// UTF-8 reach the controller as they came (a model name either
		// matches or it does not); encoding/json replaces each with U+FFFD.
		// The conversion through []rune does the same to our side.
		if m, s := string([]rune(string(got.model))), string([]rune(string(got.session))); m != want.Model ||
			s != want.Session || got.batch != int64(want.Batch) || got.deadlineMS != want.DeadlineMS {
			t.Fatalf("fields of %q: ours %q/%d/%q/%d, encoding/json %+v", data, got.model, got.batch, got.session, got.deadlineMS, want)
		}

		if math.IsNaN(latencyMS) || math.IsInf(latencyMS, 0) {
			return // json.Marshal refuses them; the controller never reports one
		}
		// The decoded strings double as arbitrary instance and error text.
		rep := submitReply{Model: string(got.model), Batch: int(got.batch), LatencyMS: latencyMS,
			Instance: string(got.session), Error: string(got.model)}
		enc := appendSubmitReply(nil, got.model, got.batch, latencyMS, rep.Instance, rep.Error)
		ref, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, ref) {
			t.Fatalf("encoded\n %s\nencoding/json\n %s", enc, ref)
		}
	})
}

// hasFoldedKey reports a top-level key that encoding/json would match to
// a submitRequest field although it is not spelled exactly like it.
func hasFoldedKey(data []byte) bool {
	var keys map[string]json.RawMessage
	if json.Unmarshal(data, &keys) != nil {
		return false
	}
	for k := range keys {
		for _, name := range []string{"model", "batch", "session", "deadline_ms"} {
			if k != name && strings.EqualFold(k, name) {
				return true
			}
		}
	}
	return false
}

// nesting is the deepest bracket depth of a valid JSON document.
func nesting(data []byte) (deepest int) {
	depth, inString := 0, false
	for i := 0; i < len(data); i++ {
		switch c := data[i]; {
		case inString && c == '\\':
			i++
		case c == '"':
			inString = !inString
		case inString:
		case c == '{' || c == '[':
			depth++
			deepest = max(deepest, depth)
		case c == '}' || c == ']':
			depth--
		}
	}
	return deepest
}

// memConn is an in-memory net.Conn: reads hand out the scripted chunks
// one per call, writes accumulate.
type memConn struct {
	chunks [][]byte
	read   int // bytes handed to the reader so far
	out    bytes.Buffer
}

func (c *memConn) Read(p []byte) (int, error) {
	for len(c.chunks) > 0 && len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	c.chunks[0] = c.chunks[0][n:]
	c.read += n
	return n, nil
}
func (c *memConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *memConn) Close() error                     { return nil }
func (c *memConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *memConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// httpReply is one parsed response off a memConn.
type httpReply struct {
	status int
	closes bool // carried Connection: close
	body   string
}

// parseReplies splits everything the server wrote into responses; any
// byte that is not part of a well-formed one is an error.
func parseReplies(out []byte) ([]httpReply, error) {
	br := bufio.NewReader(bytes.NewReader(out))
	var reps []httpReply
	for {
		line, err := br.ReadString('\n')
		if err == io.EOF && line == "" {
			return reps, nil
		}
		if err != nil || !strings.HasPrefix(line, "HTTP/1.1 ") || len(line) < 12 {
			return reps, fmt.Errorf("bad status line %q in %q", line, out)
		}
		rep := httpReply{}
		if rep.status, err = strconv.Atoi(line[9:12]); err != nil {
			return reps, fmt.Errorf("bad status in %q", line)
		}
		clen := 0
		for {
			h, err := br.ReadString('\n')
			if err != nil {
				return reps, fmt.Errorf("truncated head in %q", out)
			}
			if h = strings.TrimRight(h, "\r\n"); h == "" {
				break
			}
			if v, ok := strings.CutPrefix(h, "Content-Length: "); ok {
				if clen, err = strconv.Atoi(v); err != nil {
					return reps, err
				}
			}
			rep.closes = rep.closes || h == "Connection: close"
		}
		body := make([]byte, clen)
		if _, err := io.ReadFull(br, body); err != nil {
			return reps, fmt.Errorf("truncated body in %q", out)
		}
		rep.body = string(body)
		if rep.status != 100 { // the interim reply to Expect: 100-continue
			reps = append(reps, rep)
		}
	}
}

// frameEnd is the test's own statement of where the first request in data
// ends: its head runs to the first empty line, and its body is as long as
// its Content-Length headers — all 1*DIGIT, all the same — declare. ok is
// false when there is no such end to agree on, which includes a head line
// that is not "name:value" with the colon directly after a non-empty name.
func frameEnd(data []byte) (end int, ok bool) {
	clen, pos := -1, 0
	for first := true; ; first = false {
		nl := bytes.IndexByte(data[pos:], '\n')
		if nl < 0 {
			return 0, false
		}
		line := bytes.TrimSuffix(data[pos:pos+nl], []byte("\r"))
		pos += nl + 1
		if first {
			continue // the request line
		}
		if len(line) == 0 {
			break
		}
		name, val, isHeader := bytes.Cut(line, []byte(":"))
		if !isHeader || len(name) == 0 || bytes.HasSuffix(name, []byte(" ")) || bytes.HasSuffix(name, []byte("\t")) {
			return 0, false // not a field line: nobody can say what a proxy made of it
		}
		if !strings.EqualFold(string(name), "content-length") {
			continue
		}
		val = bytes.Trim(val, " \t")
		if len(val) == 0 || len(val) > 9 || strings.Trim(string(val), "0123456789") != "" {
			return 0, false
		}
		n, _ := strconv.Atoi(string(val))
		if clen >= 0 && n != clen {
			return 0, false
		}
		clen = n
	}
	end = pos + max(clen, 0)
	return end, end <= len(data)
}

// FuzzHTTPRequest feeds the HTTP/1.1 loop raw bytes over an in-memory
// connection, followed by one well-formed pipelined request, and checks:
// the loop neither panics nor writes anything but whole responses; a
// request it keeps the connection alive after was consumed exactly up to
// the end its headers declare (frameEnd) — never past the declared body,
// never short of it; the pipelined request is answered if and only if
// the first one was kept alive, and nothing is answered after a response
// that announced a close; and delivering the same bytes split at the
// fuzzer's boundaries draws the same responses as delivering them at once.
func FuzzHTTPRequest(f *testing.F) {
	f.Add([]byte("POST /submit HTTP/1.1\r\nAuthorization: Bearer tok\r\nContent-Length: 25\r\n\r\n"+
		`{"model":"NCF","batch":4}`), []byte{1, 7, 2})
	ing, _ := startFrontOpts(f, func(o *Options) { o.AuthTokens = []string{"tok"} })
	const trailer = "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
	healthz, _ := json.Marshal(map[string]any{"ok": true, "models": ing.order})

	f.Fuzz(func(t *testing.T, first, cuts []byte) {
		stream := append(bytes.Clone(first), trailer...)

		// One request, by hand, to see exactly how much of the stream it took.
		conn := &memConn{chunks: [][]byte{stream}}
		hc := &httpCtx{br: bufio.NewReaderSize(conn, 16<<10)}
		kept := ing.serveHTTPRequest(conn, hc)
		consumed := conn.read - hc.br.Buffered()
		if kept {
			if end, ok := frameEnd(stream); !ok || consumed != end {
				t.Fatalf("kept the connection after consuming %d bytes of %q; the headers declare an end at %d (ok=%v)", consumed, stream, end, ok)
			}
		}

		// The whole connection, at once and in pieces.
		serve := func(chunks [][]byte) []httpReply {
			conn := &memConn{chunks: chunks}
			ing.serveHTTPConn(conn)
			reps, err := parseReplies(conn.out.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			return reps
		}
		whole := serve([][]byte{stream})
		for i, rep := range whole {
			if rep.closes && i != len(whole)-1 {
				t.Fatalf("answered past a response that announced the close: %+v", whole)
			}
		}
		// The trailer parsed at the right offset is a healthz reply with
		// Connection: close; parsed anywhere else it is something else.
		if kept && consumed == len(first) {
			if len(whole) != 2 || whole[1] != (httpReply{status: 200, closes: true, body: string(healthz)}) {
				t.Fatalf("first request was kept alive but the pipelined one drew %+v", whole)
			}
		}
		if !kept && len(whole) > 1 {
			t.Fatalf("first request closed the connection but %d responses followed: %+v", len(whole)-1, whole)
		}

		var pieces [][]byte
		for rest, i := stream, 0; len(rest) > 0 && len(cuts) > 0; i++ {
			n := min(int(cuts[i%len(cuts)])+1, len(rest))
			pieces = append(pieces, rest[:n])
			rest = rest[n:]
		}
		split := serve(pieces)
		if len(cuts) > 0 && !sameReplies(whole, split) {
			t.Fatalf("split delivery diverged on %q cut by %v:\n at once  %+v\n in pieces %+v", stream, cuts, whole, split)
		}
	})
}

// sameReplies compares two response sequences by status, close and body —
// except that an admitted /submit's outcome is the controller's business
// (a 1 ms deadline may or may not expire: 200 or 502), and a 200's body
// carries a measured latency or live counters.
func sameReplies(a, b []httpReply) bool {
	if len(a) != len(b) {
		return false
	}
	admitted := func(status int) bool { return status == 200 || status == 502 }
	for i := range a {
		if a[i].closes != b[i].closes || admitted(a[i].status) != admitted(b[i].status) ||
			(!admitted(a[i].status) && a[i] != b[i]) {
			return false
		}
	}
	return true
}
