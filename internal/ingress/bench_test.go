package ingress

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"sync/atomic"
	"testing"

	"kairos/internal/server"
)

// The ingress hot-path benchmarks measure the external Submit→complete
// cost through each transport: the server package's bench cluster (2
// models x 2 loopback instances each, capped sim.LeastLoaded policy, service time
// compressed to ~0) behind a front-end serving both transports on
// loopback, driven by 16 closed-loop clients per P, one connection each.
func benchTransport(b *testing.B, worker func(ing *Server, model string, batch int, pb *testing.PB) error) {
	cluster, err := server.StartBenchCluster(1e-6, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	ing, err := New(cluster.Ctrl, Options{HTTPAddr: "127.0.0.1:0", TCPAddr: "127.0.0.1:0", MaxQueue: 4096})
	if err != nil {
		b.Fatal(err)
	}
	defer ing.Close()
	var workers atomic.Int64
	b.SetParallelism(16)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := workers.Add(1)
		if err := worker(ing, cluster.ModelNames[w%2], 1+int(w%8)*20, pb); err != nil {
			b.Error(err)
		}
	})
}

func BenchmarkIngressSubmitTCP(b *testing.B) {
	benchTransport(b, func(ing *Server, model string, batch int, pb *testing.PB) error {
		cli, err := Dial(ing.TCPAddr())
		if err != nil {
			return err
		}
		defer cli.Close()
		for pb.Next() {
			rep, err := cli.Submit(model, batch)
			if err != nil {
				return err
			}
			if rep.Err != "" {
				return fmt.Errorf("ingress bench: %s", rep.Err)
			}
		}
		return nil
	})
}

// The HTTP worker speaks raw HTTP/1.1 over a preformatted request —
// net/http's client costs ~30 allocations per request, which would drown
// the front door's allocation budget in client-side noise.
func BenchmarkIngressSubmitHTTP(b *testing.B) {
	benchTransport(b, func(ing *Server, model string, batch int, pb *testing.PB) error {
		conn, err := net.Dial("tcp", ing.HTTPAddr())
		if err != nil {
			return err
		}
		defer conn.Close()
		body := fmt.Sprintf(`{"model":%q,"batch":%d}`, model, batch)
		req := []byte(fmt.Sprintf(
			"POST /submit HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
			len(body), body))
		br := bufio.NewReaderSize(conn, 16<<10)
		for pb.Next() {
			if _, err := conn.Write(req); err != nil {
				return err
			}
			status, clen, err := readBenchResponse(br)
			if err != nil {
				return err
			}
			if _, err := br.Discard(clen); err != nil {
				return err
			}
			if status != 200 {
				return fmt.Errorf("ingress bench: HTTP %d", status)
			}
		}
		return nil
	})
}

// readBenchResponse parses a response's status code and Content-Length,
// leaving the reader positioned at the body.
func readBenchResponse(br *bufio.Reader) (status, clen int, err error) {
	line, err := readHTTPLine(br)
	if err != nil {
		return 0, 0, err
	}
	sp := bytes.IndexByte(line, ' ')
	if sp < 0 || len(line) < sp+4 {
		return 0, 0, fmt.Errorf("ingress bench: bad status line %q", line)
	}
	status, err = strconv.Atoi(string(line[sp+1 : sp+4]))
	if err != nil {
		return 0, 0, err
	}
	clen = -1
	for {
		h, err := readHTTPLine(br)
		if err != nil {
			return 0, 0, err
		}
		if len(h) == 0 {
			break
		}
		colon := bytes.IndexByte(h, ':')
		if colon > 0 && asciiEqualFold(h[:colon], "content-length") {
			clen, err = strconv.Atoi(string(trimOWS(h[colon+1:])))
			if err != nil {
				return 0, 0, err
			}
		}
	}
	if clen < 0 {
		return 0, 0, fmt.Errorf("ingress bench: response without content length")
	}
	return status, clen, nil
}
