package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"

	"kairos/internal/server"
)

// The load generator's two clients. Both are hand-rolled and allocate
// nothing per query, so allocs_per_query and cpu_us_per_query measure
// the system and not a convenience client (ingress.Client parks one
// goroutine per in-flight query; net/http costs ~30 allocations).

// tcpClient is one binary-TCP connection to the ingress, pipelined: one
// goroutine writes request frames, another reads reply frames.
type tcpClient struct {
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte
	rbuf []byte
}

// dialTCP connects and performs the front door's version handshake.
func dialTCP(addr string) (*tcpClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &tcpClient{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}
	var hello server.Hello
	if err := server.ReadFrame(c.br, &hello); err != nil {
		conn.Close()
		return nil, fmt.Errorf("ingress handshake: %w", err)
	}
	if hello.Proto < server.ProtoSession {
		conn.Close()
		return nil, fmt.Errorf("ingress speaks wire version %d, want %d", hello.Proto, server.ProtoSession)
	}
	if err := server.WriteFrame(conn, server.HelloAck{Proto: server.ProtoSession}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("ingress handshake: %w", err)
	}
	return c, nil
}

// queue appends one request frame to the write buffer.
func (c *tcpClient) queue(id int64, model string, batch int) error {
	var err error
	c.wbuf, err = server.AppendRequestFrame(c.wbuf, server.Request{ID: id, Model: model, Batch: batch})
	return err
}

// flush writes the queued frames with one syscall.
func (c *tcpClient) flush() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	_, err := c.conn.Write(c.wbuf)
	c.wbuf = c.wbuf[:0]
	return err
}

// readReply blocks for the next reply frame.
func (c *tcpClient) readReply() (server.Reply, error) {
	p, err := server.ReadRawFrame(c.br, c.rbuf)
	if err != nil {
		return server.Reply{}, err
	}
	c.rbuf = p[:0]
	return server.DecodeReplyFrame(p)
}

func (c *tcpClient) close() { c.conn.Close() }

// httpClient is one HTTP/1.1 keep-alive connection speaking raw
// preformatted requests, one outstanding at a time.
type httpClient struct {
	conn net.Conn
	br   *bufio.Reader
	body []byte
}

func dialHTTP(addr string) (*httpClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &httpClient{conn: conn, br: bufio.NewReaderSize(conn, 16<<10)}, nil
}

func (h *httpClient) close() { h.conn.Close() }

// submitRequest preformats one POST /submit.
func submitRequest(model string, batch int, session string, deadlineMS int) []byte {
	body := fmt.Sprintf(`{"model":%q,"batch":%d,"session":%q,"deadline_ms":%d}`, model, batch, session, deadlineMS)
	return []byte(fmt.Sprintf(
		"POST /submit HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		len(body), body))
}

// roundTrip writes req and reads one response. The returned body aliases
// the client's buffer and is valid until the next call.
func (h *httpClient) roundTrip(req []byte) (status int, body []byte, err error) {
	if _, err := h.conn.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	clen := -1
	for {
		line, err = h.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		const key = "content-length:"
		if len(line) > len(key) && bytes.EqualFold(line[:len(key)], []byte(key)) {
			clen, err = strconv.Atoi(string(bytes.TrimSpace(line[len(key):])))
			if err != nil {
				return 0, nil, fmt.Errorf("bad content length %q", line)
			}
		}
	}
	if clen < 0 {
		return 0, nil, errors.New("response without content length")
	}
	if cap(h.body) < clen {
		h.body = make([]byte, clen)
	}
	h.body = h.body[:clen]
	if _, err := io.ReadFull(h.br, h.body); err != nil {
		return 0, nil, err
	}
	return status, h.body, nil
}

// jsonField returns the raw value of a top-level key in the front door's
// flat reply object: a string's bytes without the quotes, or a number's
// digits. The reply shape is fixed and its strings carry no escapes, so
// a scan is enough; nil means the key is absent.
func jsonField(obj []byte, key string) []byte {
	i := 0
	for {
		j := bytes.Index(obj[i:], []byte(key))
		if j < 0 {
			return nil
		}
		j += i
		end := j + len(key)
		if j > 0 && obj[j-1] == '"' && end+1 < len(obj) && obj[end] == '"' && obj[end+1] == ':' {
			v := obj[end+2:]
			if len(v) > 0 && v[0] == '"' {
				if k := bytes.IndexByte(v[1:], '"'); k >= 0 {
					return v[1 : 1+k]
				}
				return nil
			}
			if k := bytes.IndexAny(v, ",}"); k >= 0 {
				return v[:k]
			}
			return v
		}
		i = end
	}
}

// readDeadline bounds how long a reader waits for a reply that never
// comes; an unanswered query is a failed one, not a hung benchmark. It is
// several times burst-deep's deepest wait (~8 s, ~10 s on a busy host).
const readDeadline = 40 * time.Second
