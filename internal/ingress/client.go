package ingress

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"kairos/internal/server"
)

// Client speaks the front-end's TCP protocol: one connection, concurrent
// Submit callers, O(1) reply correlation. Dial performs the handshake the
// controller performs against an instance server (server.Dial): it checks
// the Hello banner's wire version and acks it.
type Client struct {
	conn   net.Conn
	w      *server.Writer
	nextID atomic.Int64

	mu      sync.Mutex
	pending map[int64]chan server.Reply
	err     error // terminal read-loop error; set before pending close
}

// DialOptions carry client identity for token-gated front doors.
type DialOptions struct {
	// Token authenticates the connection (the HTTP transport's
	// Authorization: Bearer equivalent). Ignored by open front doors.
	Token string
}

// SubmitOptions tag one query.
type SubmitOptions struct {
	// Session is the affinity key: queries sharing it prefer the same
	// serving instance.
	Session string
	// Deadline bounds how long the query may wait for dispatch; 0 means
	// no deadline. Resolution is milliseconds (the wire unit).
	Deadline time.Duration
}

// Dial connects to a front-end's TCP endpoint.
func Dial(addr string) (*Client, error) { return DialWith(addr, DialOptions{}) }

// DialWith connects with client identity; the handshake (server.Dial)
// is bounded by server.HandshakeTimeout, connect included.
func DialWith(addr string, opts DialOptions) (*Client, error) {
	conn, br, _, err := server.Dial(addr, "client", server.HelloAck{Proto: server.ProtoSession, Token: opts.Token}, 16<<10)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, w: server.NewWriter(conn), pending: make(map[int64]chan server.Reply)}
	go c.readLoop(br)
	return c, nil
}

// replyChans pools the one-shot reply channels so a steady-state Submit
// allocates nothing for correlation. A channel is only returned to the
// pool on the normal receive path — channels closed by a dying readLoop
// are dropped.
var replyChans = sync.Pool{New: func() any { return make(chan server.Reply, 1) }}

// Submit sends one query for the named model and blocks for its reply.
// The returned error is a transport failure; a serving failure or
// front-door rejection arrives in Reply.Err (compare against
// QueueFullMsg, RateLimitedMsg, UnauthorizedMsg). On success
// Reply.ServiceMS carries the end-to-end serving latency in model
// milliseconds.
func (c *Client) Submit(model string, batch int) (server.Reply, error) {
	return c.SubmitOpts(model, batch, SubmitOptions{})
}

// SubmitOpts is Submit with a session key and deadline.
func (c *Client) SubmitOpts(model string, batch int, opts SubmitOptions) (server.Reply, error) {
	id := c.nextID.Add(1)
	req := server.Request{ID: id, Model: model, Batch: batch, Session: opts.Session}
	if opts.Deadline > 0 {
		req.DeadlineMS = int64(opts.Deadline / time.Millisecond)
	}
	// Refused here, a request the wire cannot carry fails this call alone;
	// queued, it would fail the connection.
	if err := req.Validate(); err != nil {
		return server.Reply{}, err
	}
	ch := replyChans.Get().(chan server.Reply)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		replyChans.Put(ch)
		return server.Reply{}, err
	}
	c.pending[id] = ch
	c.mu.Unlock()

	// A failed writer has closed the connection: the read loop fails every
	// pending call, this one included.
	c.w.QueueRequest(req)
	c.w.Kick()

	rep, ok := <-ch
	if !ok {
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = errors.New("ingress: connection closed")
		}
		return server.Reply{}, err
	}
	replyChans.Put(ch)
	return rep, nil
}

// readLoop correlates replies to waiting Submit callers. On a terminal
// error every pending channel is closed, failing its caller.
func (c *Client) readLoop(br *bufio.Reader) {
	var rbuf []byte
	for {
		var rep server.Reply
		p, err := server.ReadRawFrame(br, rbuf)
		if err == nil {
			rbuf = p[:0]
			rep, err = server.DecodeReplyFrame(p)
		}
		if err != nil {
			c.mu.Lock()
			c.err = c.w.Cause(err)
			for id, ch := range c.pending {
				close(ch)
				delete(c.pending, id)
			}
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		ch := c.pending[rep.ID]
		delete(c.pending, rep.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- rep
		}
	}
}

// Close tears the connection down and stops its writer; pending Submits
// fail.
func (c *Client) Close() error {
	err := c.conn.Close()
	c.w.Close()
	return err
}
