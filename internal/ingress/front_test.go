package ingress

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"kairos/internal/cloud"
	"kairos/internal/models"
	"kairos/internal/server"
	"kairos/internal/sim"
)

// startFrontOpts is startFront with full front-door options (auth,
// rate limits); the instance/controller fixture is shared.
func startFrontOpts(t testing.TB, mutate func(*Options)) (*Server, *server.Controller) {
	t.Helper()
	m := models.MustByName("NCF")
	srv, err := server.NewInstanceServer(cloud.R5nLarge.Name, m, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ctrl, err := server.NewController(m.Name, &sim.LeastLoaded{}, 1e-6, m.Latency, []string{srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrl.Close)
	opts := Options{HTTPAddr: "127.0.0.1:0", TCPAddr: "127.0.0.1:0"}
	mutate(&opts)
	ing, err := New(ctrl, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ing.Close)
	return ing, ctrl
}

// postSubmitReq POSTs an arbitrary submit body with an optional bearer
// token.
func postSubmitReq(t *testing.T, addr string, req submitRequest, token string) (int, submitReply) {
	t.Helper()
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, "http://"+addr+"/submit", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if token != "" {
		hreq.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep submitReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("decoding reply: %v", err)
	}
	return resp.StatusCode, rep
}

// TestIngressAuth: a token-gated front door rejects anonymous and
// bad-token clients with UnauthorizedMsg on both transports, serves a
// valid token, and accounts the rejections as unrouted.
func TestIngressAuth(t *testing.T) {
	ing, ctrl := startFrontOpts(t, func(o *Options) {
		o.AuthTokens = []string{"secret-a", "secret-b"}
	})
	// HTTP without a token.
	if code, rep := postSubmitReq(t, ing.HTTPAddr(), submitRequest{Model: "NCF", Batch: 10}, ""); code != http.StatusUnauthorized || rep.Error != UnauthorizedMsg {
		t.Fatalf("anonymous HTTP: code=%d rep=%+v", code, rep)
	}
	// HTTP with a wrong token.
	if code, rep := postSubmitReq(t, ing.HTTPAddr(), submitRequest{Model: "NCF", Batch: 10}, "wrong"); code != http.StatusUnauthorized || rep.Error != UnauthorizedMsg {
		t.Fatalf("bad-token HTTP: code=%d rep=%+v", code, rep)
	}
	// HTTP with a valid token serves.
	if code, rep := postSubmitReq(t, ing.HTTPAddr(), submitRequest{Model: "NCF", Batch: 10}, "secret-a"); code != http.StatusOK || rep.Error != "" {
		t.Fatalf("valid-token HTTP: code=%d rep=%+v", code, rep)
	}
	// TCP without a token: NACKed, connection stays up.
	anon, err := Dial(ing.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer anon.Close()
	if rep, err := anon.Submit("NCF", 10); err != nil || rep.Err != UnauthorizedMsg {
		t.Fatalf("anonymous TCP: rep=%+v err=%v", rep, err)
	}
	// TCP with a valid token serves.
	cli, err := DialWith(ing.TCPAddr(), DialOptions{Token: "secret-b"})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if rep, err := cli.Submit("NCF", 10); err != nil || rep.Err != "" {
		t.Fatalf("valid-token TCP: rep=%+v err=%v", rep, err)
	}
	// The three rejections count as unrouted, surfaced through Stats.
	if got := ctrl.Stats().IngressUnrouted; got != 3 {
		t.Fatalf("IngressUnrouted = %d, want 3", got)
	}
	// Rejections never touched the per-model counters.
	if st := ing.Stats()["NCF"]; st.Submitted != 2 || st.Failed != 0 {
		t.Fatalf("model stats after auth rejections: %+v", st)
	}
}

// TestIngressRateLimit: an over-budget client gets RateLimitedMsg — not
// QueueFullMsg — on both transports, and the rejections are accounted
// separately from queue-full ones.
func TestIngressRateLimit(t *testing.T) {
	ing, _ := startFrontOpts(t, func(o *Options) {
		// One query per ~17 minutes, burst 2: the first two submissions on
		// each transport's bucket pass deterministically, the rest fail.
		o.AuthTokens = []string{"tok-http", "tok-tcp"}
		o.RateLimit = 0.001
		o.RateBurst = 2
	})
	var limited int
	for i := 0; i < 4; i++ {
		code, rep := postSubmitReq(t, ing.HTTPAddr(), submitRequest{Model: "NCF", Batch: 10}, "tok-http")
		switch {
		case code == http.StatusOK && rep.Error == "":
		case code == http.StatusTooManyRequests && rep.Error == RateLimitedMsg:
			limited++
		default:
			t.Fatalf("submit %d: code=%d rep=%+v", i, code, rep)
		}
	}
	if limited != 2 {
		t.Fatalf("HTTP rate-limited %d of 4, want 2", limited)
	}
	cli, err := DialWith(ing.TCPAddr(), DialOptions{Token: "tok-tcp"})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	limited = 0
	for i := 0; i < 4; i++ {
		rep, err := cli.Submit("NCF", 10)
		if err != nil {
			t.Fatal(err)
		}
		switch rep.Err {
		case "":
		case RateLimitedMsg:
			limited++
		default:
			t.Fatalf("submit %d: %+v", i, rep)
		}
	}
	if limited != 2 {
		t.Fatalf("TCP rate-limited %d of 4, want 2", limited)
	}
	st := ing.Stats()["NCF"]
	if st.RateLimited != 4 || st.Rejected != 0 {
		t.Fatalf("rate-limit accounting: %+v", st)
	}
	if st.Submitted != 4 || st.Completed != 4 {
		t.Fatalf("served accounting: %+v", st)
	}
}

// TestIngressUnknownModelUnrouted: unknown-model submissions on both
// transports surface in the server-level unrouted counter.
func TestIngressUnknownModelUnrouted(t *testing.T) {
	ing, ctrl := startFront(t, 0, 1e-6)
	if code, rep := postSubmit(t, ing.HTTPAddr(), "nope", 10); code != http.StatusBadRequest || !strings.Contains(rep.Error, "unknown model") {
		t.Fatalf("unknown model HTTP: code=%d rep=%+v", code, rep)
	}
	cli, err := Dial(ing.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if rep, err := cli.Submit("nope", 10); err != nil || !strings.Contains(rep.Err, "unknown model") {
		t.Fatalf("unknown model TCP: rep=%+v err=%v", rep, err)
	}
	if got := ctrl.Stats().IngressUnrouted; got != 2 {
		t.Fatalf("IngressUnrouted = %d, want 2", got)
	}
}

// TestIngressSessionAffinity: HTTP submissions sharing a session key are
// served by one instance (the reply's Instance field proves it via
// distinct instance types).
func TestIngressSessionAffinity(t *testing.T) {
	m := models.MustByName("NCF")
	types := []string{cloud.G4dnXlarge.Name, cloud.R5nLarge.Name}
	addrs := make([]string, len(types))
	for i, tn := range types {
		srv, err := server.NewInstanceServer(tn, m, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	ctrl, err := server.NewController(m.Name, &sim.LeastLoaded{}, 1e-6, m.Latency, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrl.Close)
	ing, err := New(ctrl, Options{HTTPAddr: "127.0.0.1:0", TCPAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ing.Close)
	for _, session := range []string{"alice", "bob", "carol"} {
		seen := map[string]int{}
		for i := 0; i < 20; i++ {
			code, rep := postSubmitReq(t, ing.HTTPAddr(), submitRequest{Model: "NCF", Batch: 10, Session: session}, "")
			if code != http.StatusOK || rep.Error != "" {
				t.Fatalf("session submit: code=%d rep=%+v", code, rep)
			}
			seen[rep.Instance]++
		}
		if len(seen) != 1 {
			t.Fatalf("session %q split across instances: %v", session, seen)
		}
	}
	// The TCP client path carries the same key end to end.
	cli, err := Dial(ing.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 10; i++ {
		rep, err := cli.SubmitOpts("NCF", 10, SubmitOptions{Session: "alice"})
		if err != nil || rep.Err != "" {
			t.Fatalf("TCP session submit: rep=%+v err=%v", rep, err)
		}
	}
}

// TestIngressOneLane: both transports on one server feed the same
// per-model counters, the controller-merged snapshot agrees with them,
// and MaxQueue is the exact admission bound — MaxQueue concurrent queries
// are all admitted, the next one is pushed back on either transport.
func TestIngressOneLane(t *testing.T) {
	ing, ctrl := startFront(t, 0, 1e-6)
	const n = 30
	for i := 0; i < n; i++ {
		if code, rep := postSubmit(t, ing.HTTPAddr(), "NCF", 1+i%8); code != http.StatusOK || rep.Error != "" {
			t.Fatalf("submit %d: code=%d rep=%+v", i, code, rep)
		}
	}
	cli, err := Dial(ing.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < n; i++ {
		if rep, err := cli.Submit("NCF", 1+i%8); err != nil || rep.Err != "" {
			t.Fatalf("TCP submit %d: rep=%+v err=%v", i, rep, err)
		}
	}
	st := ing.Stats()["NCF"]
	if st.Submitted != 2*n || st.Completed != 2*n || st.HTTP != n || st.TCP != n || st.Queue != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if got := ctrl.Stats().Ingress["NCF"]; got != st {
		t.Fatalf("controller merge %+v != %+v", got, st)
	}

	// The exact bound, on a door slow enough (~150ms per query) that the
	// occupying queries provably overlap the probe.
	const maxQueue = 3
	m := models.MustByName("NCF")
	slow, slowCtrl := startFront(t, maxQueue, 150/m.Latency(cloud.R5nLarge.Name, 500))
	occ, err := Dial(slow.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer occ.Close()
	occupied := make(chan server.Reply, maxQueue)
	for i := 0; i < maxQueue; i++ {
		go func() {
			rep, err := occ.Submit("NCF", 500)
			if err != nil {
				rep.Err = err.Error()
			}
			occupied <- rep
		}()
	}
	waitFor(t, "MaxQueue admitted queries", func() bool { return slowCtrl.Stats().Ingress["NCF"].Queue == maxQueue })
	if st := slow.Stats()["NCF"]; st.Submitted != maxQueue || st.Rejected != 0 {
		t.Fatalf("at MaxQueue every query must be admitted: %+v", st)
	}
	if code, rep := postSubmit(t, slow.HTTPAddr(), "NCF", 10); code != http.StatusTooManyRequests || rep.Error != QueueFullMsg {
		t.Fatalf("query MaxQueue+1 over HTTP: code=%d rep=%+v", code, rep)
	}
	if rep, err := occ.Submit("NCF", 10); err != nil || rep.Err != QueueFullMsg {
		t.Fatalf("query MaxQueue+1 over TCP: rep=%+v err=%v", rep, err)
	}
	for i := 0; i < maxQueue; i++ {
		if rep := <-occupied; rep.Err != "" {
			t.Fatalf("occupying query failed: %+v", rep)
		}
	}
	if st := slow.Stats()["NCF"]; st.Submitted != maxQueue || st.Completed != maxQueue || st.Rejected != 2 || st.Queue != 0 {
		t.Fatalf("after the drain: %+v", st)
	}
}

// TestIngressHTTPProtocolEdges: the hand-rolled HTTP loop answers
// protocol violations cleanly.
func TestIngressHTTPProtocolEdges(t *testing.T) {
	ing, _ := startFront(t, 0, 1e-6)
	base := "http://" + ing.HTTPAddr()
	// Unknown route.
	resp, err := http.Get(base + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown route: %d", resp.StatusCode)
	}
	// Oversized body is refused without buffering.
	big := bytes.Repeat([]byte("x"), maxSubmitBody+1)
	resp, err = http.Post(base+"/submit", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d", resp.StatusCode)
	}
	// Malformed JSON is a clean 400.
	resp, err = http.Post(base+"/submit", "application/json", strings.NewReader(`{"model":`))
	if err != nil {
		t.Fatal(err)
	}
	var rep submitReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(rep.Error, "bad request") {
		t.Fatalf("bad JSON: code=%d rep=%+v", resp.StatusCode, rep)
	}
	// A request with a body on a GET route keeps the keep-alive stream
	// usable (the body is discarded, not misread as the next request).
	client := &http.Client{}
	req, _ := http.NewRequest(http.MethodGet, base+"/healthz", strings.NewReader(`{"x":1}`))
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET with body: %d", resp.StatusCode)
	}

	// Request-smuggling class: whenever a proxy in front could disagree
	// with us about where a body ends, the request is refused and the
	// connection closed — the pipelined request behind it must never be
	// answered, because we cannot know where it starts.
	const body = `{"model":"NCF","batch":1}`
	next := "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
	post := func(headers string) string {
		return "POST /submit HTTP/1.1\r\nHost: x\r\n" + headers + "\r\n" + body + next
	}
	cl := fmt.Sprintf("Content-Length: %d\r\n", len(body))
	for _, tc := range []struct {
		name, headers string
		statuses      []string // one per response the connection carries
	}{
		{"two lengths, different", "Content-Length: 5\r\n" + cl, []string{"400"}},
		{"two lengths, different, other order", cl + "Content-Length: 5\r\n", []string{"400"}},
		{"plus sign", fmt.Sprintf("Content-Length: +%d\r\n", len(body)), []string{"400"}},
		{"minus zero", "Content-Length: -0\r\n", []string{"400"}},
		{"list form", fmt.Sprintf("Content-Length: %d, %d\r\n", len(body), len(body)), []string{"400"}},
		{"empty", "Content-Length:\r\n", []string{"400"}},
		{"length and transfer-encoding", cl + "Transfer-Encoding: chunked\r\n", []string{"501"}},
		// A length a lenient proxy would honour and a strict one drop.
		{"space before the colon", fmt.Sprintf("Content-Length : %d\r\n", len(body)), []string{"400"}},
		{"header line without a colon", cl + "X-Folded\r\n", []string{"400"}},
		// The same length twice is unambiguous: served, and the stream
		// stays in step for the request behind it.
		{"two lengths, same", cl + cl, []string{"200", "200"}},
	} {
		raw := rawHTTP(t, ing.HTTPAddr(), post(tc.headers))
		var got []string
		for _, part := range strings.Split(raw, "HTTP/1.1 ")[1:] {
			got = append(got, part[:3])
		}
		if strings.Join(got, ",") != strings.Join(tc.statuses, ",") {
			t.Errorf("%s: responses %v, want %v (connection closed, not resynchronised)\n%s", tc.name, got, tc.statuses, raw)
		}
		if len(tc.statuses) == 1 && !strings.Contains(raw, "Connection: close\r\n") {
			t.Errorf("%s: refusal does not announce the close:\n%s", tc.name, raw)
		}
	}
}

// rawHTTP writes payload on a fresh connection and returns everything the
// server sends until it closes the connection.
func rawHTTP(t *testing.T, addr, payload string) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write([]byte(payload)); err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(conn)
	// A refusal ends in a clean close, never a reset (which could destroy
	// the status); running into the deadline means the server kept the
	// connection.
	if err != nil {
		t.Fatalf("reading until the server closes: %v (got %q)", err, raw)
	}
	return string(raw)
}

// TestIngressHTTPRefusalSurvivesUnreadBody: a refusal the client is still
// sending a body into arrives as its status, not as a reset — every time.
// Closing with the body unread made the kernel send RST, and the client
// saw EPIPE/ECONNRESET instead of the 413 about one run in thirty.
func TestIngressHTTPRefusalSurvivesUnreadBody(t *testing.T) {
	ing, _ := startFront(t, 0, 1e-6)
	big := bytes.Repeat([]byte("x"), 1<<20)
	for i := 0; i < 200; i++ {
		resp, err := http.Post("http://"+ing.HTTPAddr()+"/submit", "application/json", bytes.NewReader(big))
		if err != nil {
			t.Fatalf("try %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("try %d: status %d, want 413", i, resp.StatusCode)
		}
	}
	// Over a raw socket, with a request pipelined behind the refused body
	// (on a /submit and on a bodyless route): one 413, a clean close, and
	// the pipelined request is never answered.
	for _, route := range []string{"POST /submit", "GET /healthz"} {
		head := fmt.Sprintf("%s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n", route, len(big))
		raw := rawHTTP(t, ing.HTTPAddr(), head+string(big)+"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
		if n := strings.Count(raw, "HTTP/1.1 "); n != 1 || !strings.HasPrefix(raw, "HTTP/1.1 413 ") {
			t.Fatalf("%s with a 1 MiB body and a pipelined request: %d responses\n%s", route, n, raw)
		}
	}
}

// TestParseSubmitBody pins the hand-rolled decoder against
// encoding/json's behavior on the shapes that matter.
func TestParseSubmitBody(t *testing.T) {
	var f submitFields
	ok := []struct {
		in                string
		model, session    string
		batch, deadlineMS int64
	}{
		{`{"model":"NCF","batch":16}`, "NCF", "", 16, 0},
		{`{ "model" : "NCF" , "batch" : 16 }`, "NCF", "", 16, 0},
		{`{"batch":2,"model":"MT-WND","session":"u-1","deadline_ms":250}`, "MT-WND", "u-1", 2, 250},
		{`{"model":"a\"b\\c\nA","batch":1}`, "a\"b\\c\nA", "", 1, 0},
		{`{"model":"NCF","batch":-3}`, "NCF", "", -3, 0},
		{`{"unknown":{"nested":[1,"x",true,null]},"model":"NCF","batch":1,"extra":3.5}`, "NCF", "", 1, 0},
		{`{}`, "", "", 0, 0},
	}
	for _, tc := range ok {
		if err := parseSubmitBody([]byte(tc.in), &f); err != nil {
			t.Fatalf("parse(%s): %v", tc.in, err)
		}
		if string(f.model) != tc.model || string(f.session) != tc.session || f.batch != tc.batch || f.deadlineMS != tc.deadlineMS {
			t.Fatalf("parse(%s) = %+v", tc.in, f)
		}
	}
	for _, bad := range []string{
		``, `[]`, `"x"`, `{`, `{"model"}`, `{"model":}`, `{"batch":1.5}`,
		`{"model":"x" "batch":1}`, `{"model":"unterminated`,
	} {
		if err := parseSubmitBody([]byte(bad), &f); err == nil {
			t.Fatalf("parse(%q) accepted", bad)
		}
	}
	// The encoder matches encoding/json for the reply struct.
	got := appendSubmitReply(nil, []byte("NCF"), 16, 1.25, "g4dn.xlarge", "")
	want, _ := json.Marshal(submitReply{Model: "NCF", Batch: 16, LatencyMS: 1.25, Instance: "g4dn.xlarge"})
	if !bytes.Equal(got, want) {
		t.Fatalf("encoded %s, want %s", got, want)
	}
	got = appendSubmitReply(nil, nil, 0, 0, "", `quote " and <html>`)
	want, _ = json.Marshal(submitReply{Error: `quote " and <html>`})
	if !bytes.Equal(got, want) {
		t.Fatalf("encoded %s, want %s", got, want)
	}
}
