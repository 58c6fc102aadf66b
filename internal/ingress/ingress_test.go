package ingress

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"kairos/internal/cloud"
	"kairos/internal/models"
	"kairos/internal/server"
)

// startFront boots one NCF instance + controller + front-end for the
// unit tests. maxQueue 0 uses the default.
func startFront(t *testing.T, maxQueue int, scale float64) (*Server, *server.Controller) {
	t.Helper()
	m := models.MustByName("NCF")
	srv, err := server.NewInstanceServer(cloud.R5nLarge.Name, m, scale)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ctrl, err := server.NewController(m.Name, &server.LeastBacklog{MaxPending: 1 << 20}, scale, m.Latency, []string{srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrl.Close)
	ing, err := New(ctrl, Options{HTTPAddr: "127.0.0.1:0", TCPAddr: "127.0.0.1:0", MaxQueue: maxQueue})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ing.Close)
	return ing, ctrl
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// postSubmit POSTs one query and decodes the reply.
func postSubmit(t *testing.T, addr, model string, batch int) (int, submitReply) {
	t.Helper()
	body, _ := json.Marshal(submitRequest{Model: model, Batch: batch})
	resp, err := http.Post("http://"+addr+"/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep submitReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, rep
}

func TestIngressValidation(t *testing.T) {
	t.Parallel()
	if _, err := New(nil, Options{HTTPAddr: "127.0.0.1:0"}); err == nil {
		t.Fatal("nil controller must error")
	}
	m := models.MustByName("NCF")
	srv, err := server.NewInstanceServer(cloud.R5nLarge.Name, m, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctrl, err := server.NewController(m.Name, &server.LeastBacklog{}, 1e-6, m.Latency, []string{srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	const addr = "127.0.0.1:0"
	for _, tc := range []struct {
		name string
		opts Options
		ok   bool
	}{
		{"no endpoints", Options{}, false},
		{"negative queue bound", Options{HTTPAddr: addr, MaxQueue: -1}, false},
		{"negative rate limit", Options{HTTPAddr: addr, RateLimit: -1}, false},
		{"NaN rate limit", Options{HTTPAddr: addr, RateLimit: math.NaN()}, false},
		{"negative rate burst", Options{HTTPAddr: addr, RateLimit: 1, RateBurst: -1}, false},
		{"empty auth token", Options{TCPAddr: addr, AuthTokens: []string{"a", ""}}, false},
		// (burst-1)*interval used to wrap int64 and reject every request
		// forever: 1e12 ns x 2^31 ≈ 2e21.
		{"burst x interval overflows", Options{HTTPAddr: addr, RateLimit: 1e-3, RateBurst: math.MaxInt32}, false},
		{"derived burst overflows", Options{HTTPAddr: addr, RateLimit: 1e30}, false},
		{"interval overflows", Options{HTTPAddr: addr, RateLimit: 1e-300, RateBurst: 1}, false},
		{"deep but representable burst", Options{HTTPAddr: addr, RateLimit: 0.5, RateBurst: 1_000_000}, true},
		{"everything set", Options{HTTPAddr: addr, TCPAddr: addr, MaxQueue: 7, AuthTokens: []string{"a"}, RateLimit: 100}, true},
	} {
		ing, err := New(ctrl, tc.opts)
		if ing != nil {
			ing.Close()
		}
		if (err == nil) != tc.ok {
			t.Errorf("%s: New error = %v, want ok=%v", tc.name, err, tc.ok)
		}
		// Validate is the same check, runnable before there is a controller.
		if verr := tc.opts.Validate(); (verr == nil) != tc.ok {
			t.Errorf("%s: Validate error = %v, want ok=%v", tc.name, verr, tc.ok)
		}
	}
}

// TestIngressHTTPSubmit: external HTTP queries route to the model, serve,
// and the front-end counters merge into the controller's Stats snapshot
// (the shared observability surface).
func TestIngressHTTPSubmit(t *testing.T) {
	t.Parallel()
	ing, ctrl := startFront(t, 0, 1e-6)
	for i := 0; i < 5; i++ {
		code, rep := postSubmit(t, ing.HTTPAddr(), "NCF", 10+i)
		if code != http.StatusOK || rep.Error != "" {
			t.Fatalf("submit %d: code=%d rep=%+v", i, code, rep)
		}
		if rep.LatencyMS <= 0 || rep.Instance == "" {
			t.Fatalf("reply missing serving detail: %+v", rep)
		}
	}
	// Unknown model and malformed batch are clean client errors.
	if code, rep := postSubmit(t, ing.HTTPAddr(), "nope", 10); code != http.StatusBadRequest || rep.Error == "" {
		t.Fatalf("unknown model: code=%d rep=%+v", code, rep)
	}
	if code, rep := postSubmit(t, ing.HTTPAddr(), "NCF", -3); code != http.StatusBadGateway || rep.Error == "" {
		t.Fatalf("bad batch must surface the serving error: code=%d rep=%+v", code, rep)
	}

	st := ctrl.Stats()
	is, ok := st.Ingress["NCF"]
	if !ok {
		t.Fatalf("controller stats missing the ingress section: %+v", st)
	}
	// 5 served + 1 failed (bad batch); the unknown model never admitted.
	if is.Submitted != 6 || is.HTTP != 6 || is.TCP != 0 || is.Completed != 5 || is.Failed != 1 || is.Queue != 0 {
		t.Fatalf("ingress stats = %+v", is)
	}
	// /stats agrees.
	resp, err := http.Get("http://" + ing.HTTPAddr() + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var viaHTTP map[string]server.IngressStats
	if err := json.NewDecoder(resp.Body).Decode(&viaHTTP); err != nil {
		t.Fatal(err)
	}
	if viaHTTP["NCF"] != is {
		t.Fatalf("/stats %+v disagrees with controller merge %+v", viaHTTP["NCF"], is)
	}
}

// TestIngressTCPSubmit: the binary client round-trips queries through the
// negotiated codec, and rejections arrive as NACK replies.
func TestIngressTCPSubmit(t *testing.T) {
	t.Parallel()
	ing, ctrl := startFront(t, 0, 1e-6)
	cli, err := Dial(ing.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(batch int) {
			defer wg.Done()
			rep, err := cli.Submit("NCF", batch)
			if err != nil {
				errs <- err
				return
			}
			if rep.Err != "" {
				errs <- fmt.Errorf("serving error: %s", rep.Err)
				return
			}
			if rep.ServiceMS <= 0 {
				errs <- fmt.Errorf("reply without latency: %+v", rep)
			}
		}(1 + i*10)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if rep, err := cli.Submit("nope", 10); err != nil || !strings.Contains(rep.Err, "unknown model") {
		t.Fatalf("unknown model over TCP: rep=%+v err=%v", rep, err)
	}
	is := ctrl.Stats().Ingress["NCF"]
	if is.TCP != 20 || is.Completed != 20 || is.Failed != 0 {
		t.Fatalf("ingress stats = %+v", is)
	}
}

// TestIngressBackpressure: with a queue bound of 1 and a slow instance,
// the second concurrent query is pushed back — HTTP 429 on one transport,
// a QueueFullMsg NACK on the other — and counted as rejected, never
// submitted.
func TestIngressBackpressure(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	// ~150ms per query: long enough that the occupying query provably
	// overlaps the rejected ones.
	scale := 150 / m.Latency(cloud.R5nLarge.Name, 500)
	ing, ctrl := startFront(t, 1, scale)

	occupied := make(chan submitReply, 1)
	go func() {
		_, rep := postSubmit(t, ing.HTTPAddr(), "NCF", 500)
		occupied <- rep
	}()
	// Wait until the slot is provably held.
	waitFor(t, "the occupying query", func() bool { return ctrl.Stats().Ingress["NCF"].Queue > 0 })

	if code, rep := postSubmit(t, ing.HTTPAddr(), "NCF", 10); code != http.StatusTooManyRequests || rep.Error != QueueFullMsg {
		t.Fatalf("overload must 429 with %q: code=%d rep=%+v", QueueFullMsg, code, rep)
	}
	cli, err := Dial(ing.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if rep, err := cli.Submit("NCF", 10); err != nil || rep.Err != QueueFullMsg {
		t.Fatalf("overload must NACK with %q: rep=%+v err=%v", QueueFullMsg, rep, err)
	}

	if rep := <-occupied; rep.Error != "" {
		t.Fatalf("occupying query failed: %+v", rep)
	}
	is := ctrl.Stats().Ingress["NCF"]
	if is.Rejected != 2 || is.Submitted != 1 || is.Completed != 1 {
		t.Fatalf("ingress stats = %+v", is)
	}
	// The queue drained; new queries flow again.
	if code, rep := postSubmit(t, ing.HTTPAddr(), "NCF", 10); code != http.StatusOK || rep.Error != "" {
		t.Fatalf("post-drain submit: code=%d rep=%+v", code, rep)
	}
}

// TestIngressCloseDeliversInflightReplies: Close while TCP queries are in
// flight must deliver every admitted reply before the connection goes
// away — an orderly front-end shutdown drops nothing.
func TestIngressCloseDeliversInflightReplies(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	scale := 100 / m.Latency(cloud.R5nLarge.Name, 500)
	ing, ctrl := startFront(t, 0, scale)
	cli, err := Dial(ing.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := cli.Submit("NCF", 500)
			if err != nil {
				errs <- err
				return
			}
			if rep.Err != "" {
				errs <- fmt.Errorf("serving error: %s", rep.Err)
			}
		}()
	}
	waitFor(t, "admitted in-flight queries", func() bool { return ctrl.Stats().Ingress["NCF"].Queue > 0 })
	ing.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("in-flight query lost across Close: %v", err)
	}
}
