package main

import (
	"bufio"
	"encoding/json"
	"math"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"kairos/internal/server"
)

func TestSupportedTail(t *testing.T) {
	// The rule: quote the highest percentile with at least ten samples
	// beyond it.
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.50}, {99, 0.50}, {100, 0.90}, {999, 0.90},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {1 << 20, 0.999},
	}
	for _, c := range cases {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// Asking for p99 of 500 samples yields p90, and says so.
	v := make([]float64, 500)
	for i := range v {
		v[i] = float64(i)
	}
	got, used := tailAt(v, 0.99)
	if used != 0.90 || math.Abs(got-quantile(v, 0.90)) > 1e-9 {
		t.Errorf("tailAt(500 samples, p99) = %v at p%v, want the p90", got, used*100)
	}
	if got := quantile([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Errorf("quantile interpolation: got %v, want 2.5", got)
	}
}

func TestKneeQPS(t *testing.T) {
	const limit = 26.25
	cases := []struct {
		name      string
		ladder    []rung
		want      float64
		bracketed bool
	}{
		{"monotone ladder crosses between two rungs",
			[]rung{{RateQPS: 1800, TailMS: 25}, {RateQPS: 2000, TailMS: 25.25}, {RateQPS: 2200, TailMS: 27.25}, {RateQPS: 2400, TailMS: 40}},
			2100, true},
		{"all pass: the top rate, a lower bound",
			[]rung{{RateQPS: 1800, TailMS: 24}, {RateQPS: 2000, TailMS: 25}},
			2000, false},
		{"all fail: the lowest rate scaled down by limit/tail",
			[]rung{{RateQPS: 1800, TailMS: 52.5}, {RateQPS: 2000, TailMS: 80}},
			900, false},
		{"a disturbed rung is skipped, its neighbours bracket",
			[]rung{{RateQPS: 1800, TailMS: 25.25}, {RateQPS: 2000, TailMS: 90, Disturbed: true}, {RateQPS: 2200, TailMS: 27.25}},
			2000, true},
		{"a growing backlog fails a rung whatever its percentile",
			[]rung{{RateQPS: 1800, TailMS: 25}, {RateQPS: 2000, TailMS: 25, Grew: true}},
			1800, true},
		{"a later pass does not rescue an earlier fail",
			[]rung{{RateQPS: 1800, TailMS: 25.25}, {RateQPS: 2000, TailMS: 27.25}, {RateQPS: 2200, TailMS: 25}},
			1900, true},
	}
	for _, c := range cases {
		got, bracketed := kneeQPS(c.ladder, limit)
		if math.Abs(got-c.want) > 1e-6 || bracketed != c.bracketed {
			t.Errorf("%s: kneeQPS = %v (bracketed %v), want %v (bracketed %v)", c.name, got, bracketed, c.want, c.bracketed)
		}
	}
}

// stallingServer speaks the front door's binary protocol and answers at
// once, except that it stops reading for stall once it has seen
// stallAfter requests.
func stallingServer(t *testing.T, stallAfter int, stall time.Duration) (addr string, stalledAt func() time.Time) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	at := make(chan time.Time, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if err := server.WriteFrame(conn, server.Hello{TypeName: "ingress", Proto: server.ProtoSession}); err != nil {
			return
		}
		br := bufio.NewReader(conn)
		var ack server.HelloAck
		if err := server.ReadFrame(br, &ack); err != nil {
			return
		}
		var rbuf, wbuf []byte
		for seen := 0; ; seen++ {
			if seen == stallAfter {
				at <- time.Now()
				time.Sleep(stall)
			}
			p, err := server.ReadRawFrame(br, rbuf)
			if err != nil {
				return
			}
			rbuf = p[:0]
			rv, err := server.DecodeRequestView(p)
			if err != nil {
				return
			}
			wbuf, _ = server.AppendReplyFrame(wbuf[:0], server.Reply{ID: rv.ID, ServiceMS: 1})
			if _, err := conn.Write(wbuf); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String(), func() time.Time { return <-at }
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	const (
		n          = 400
		gap        = time.Millisecond
		stallAfter = 100
		stall      = 150 * time.Millisecond
	)
	addr, stalledAt := stallingServer(t, stallAfter, stall)
	c, err := dialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	qs := make([]query, n)
	for i := range qs {
		qs[i] = query{dueNS: int64(i+1) * int64(gap), batch: 8}
	}
	var fails failures
	began := time.Now()
	ph, err := runOpen([]*tcpClient{c}, []string{"MT-WND"}, qs, 1000, &fails, nil)
	if err != nil || fails.count() != 0 {
		t.Fatalf("runOpen: err %v, failures %v", err, fails.first)
	}
	stallStart := stalledAt().Sub(began).Nanoseconds()
	stallEnd := stallStart + stall.Nanoseconds()

	// An open loop keeps to its schedule while the server is silent …
	s := analyzeOpen(ph, 25, 26.25, 1)
	if s.Succeeded != n || s.LateMaxMS > 50 {
		t.Fatalf("sent %d ok %d, generator up to %.1f ms late: the loop waited for the server", s.Sent, s.Succeeded, s.LateMaxMS)
	}
	// … so every query that fell due during the stall carries the rest
	// of the stall in its latency, not only the one that hit it.
	const slack = 20e6
	stalled := 0
	for i, q := range qs {
		if q.dueNS < stallStart+slack || q.dueNS > stallEnd-slack {
			continue
		}
		stalled++
		if lat, rest := ph.done[i]-q.dueNS, stallEnd-q.dueNS; float64(lat) < float64(rest)-slack {
			t.Errorf("query %d due %.1f ms into the stall: latency %.1f ms, want at least the %.1f ms left of it",
				i, float64(q.dueNS-stallStart)/1e6, float64(lat)/1e6, float64(rest)/1e6)
		}
	}
	if stalled < 50 {
		t.Fatalf("only %d queries fell due during the stall; the test did not exercise it", stalled)
	}
	if s.TailMS < 100 {
		t.Errorf("tail latency %.1f ms does not show the %v stall", s.TailMS, stall)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestLedgerMatchesBenchmarkJSON holds the tables in this package equal
// to BENCHMARK.json: same names, same units, same order.
func TestLedgerMatchesBenchmarkJSON(t *testing.T) {
	bj, err := readBenchmarkJSON(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, listed []boundedMetric) {
		if len(defs) != len(listed) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(defs), len(listed))
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: %s (%s) here, %s (%s) in BENCHMARK.json", kind, i, d.name, d.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd)
	check("per_layer", perLayer, bj.PerLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads here, %d in BENCHMARK.json", len(workloads), len(bj.Workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %q here, %q in BENCHMARK.json (or their reasons differ)", i, w.name, bj.Workloads[i].Name)
		}
	}
}

// TestSmoke runs every workload for a second, untraced and traced, and
// checks that what it emits is exactly what BENCHMARK.json names, each
// once, and that the outputs pass the correctness gate.
func TestSmoke(t *testing.T) {
	bj, err := readBenchmarkJSON(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, w := range bj.Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or repeated", w.Name)
		}
		seen[w.Name] = true
	}
	for _, w := range bj.Workloads {
		def, ok := findWorkload(w.Name)
		if !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not have", w.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			o := runOpts{workload: w.Name, seed: 1, seconds: 1, traced: traced, conns: 2,
				traceOut: filepath.Join(t.TempDir(), w.Name+".spans.jsonl")}
			res, err := def.run(o)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced %v): correct %v, %d failed of %d: %v", w.Name, traced, res.Correct, res.Failed, res.Attempted, res.Problems)
			}
			want := bj.EndToEnd
			if traced {
				want = bj.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics emitted, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(want))
			}
			names := map[string]bool{}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !nameRE.MatchString(m.Name) || names[m.Name]:
					t.Errorf("metric name %q is malformed or repeated", m.Name)
				case !ok:
					t.Errorf("%s (traced %v): metric %s is not emitted", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, m.Name, got.Value)
				}
				names[m.Name] = true
			}
			if traced {
				if fi, err := os.Stat(o.traceOut); err != nil || fi.Size() == 0 || res.Spans == 0 {
					t.Errorf("%s: traced pass left no spans (%v)", w.Name, err)
				}
			}
			// The result line must survive a JSON round trip.
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s: result does not encode: %v", w.Name, err)
			}
		}
	}
}
