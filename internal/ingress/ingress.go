// Package ingress is the external query front-end of the serving path:
// it accepts traffic the system did not generate itself and feeds it into
// the central controller with per-model routing. Two transports share one
// admission path: an HTTP endpoint speaking JSON (POST /submit) and a raw
// TCP endpoint speaking the controller's binary wire codec (the same
// Hello/HelloAck handshake an instance server performs, so one codec
// serves the whole system). Overload pushes back instead of piling
// up: each model has a bounded admission queue, and a submission beyond
// the bound is answered immediately with HTTP 429 or a binary NACK reply
// — never silently dropped. Per-model ingress accounting is merged into
// the controller's Stats snapshot (server.SetStatsAugmenter), so
// kairosctl and the autopilot admin /metrics see front-end and serving
// counters on one surface.
//
// The front door is sharded (Options.Shards): each shard owns an accept
// loop per transport (over SO_REUSEPORT where the platform has it), a
// slice of every model's admission quota, a pooled-waiter set for the
// TCP path, and a stripe of the front-door stage histograms — so at
// saturation the shards contend on nothing. Queries may carry a session
// key routed with consistent-hash-bounded-load affinity and a deadline
// enforced by the controller's dispatch loop; untrusted clients are
// gated by a static bearer-token list and per-client rate limits.
package ingress

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"kairos/internal/obs"
	"kairos/internal/server"
)

// DefaultMaxQueue bounds each model's admitted-but-unfinished queries
// when Options.MaxQueue is zero.
const DefaultMaxQueue = 1024

// QueueFullMsg is the exact error string a backpressure rejection
// carries, on both transports (the HTTP 429 body's "error" field and the
// binary NACK reply's Err). Clients match it to distinguish overload from
// serving failures.
const QueueFullMsg = "ingress: queue full"

// RateLimitedMsg is the exact error string a per-client rate-limit
// rejection carries on both transports — distinct from QueueFullMsg, so
// a client can tell "you are over your budget" from "the system is
// full".
const RateLimitedMsg = "ingress: rate limited"

// UnauthorizedMsg is the exact error string an unauthenticated
// submission receives when the front door has a token list.
const UnauthorizedMsg = "ingress: unauthorized"

// writeTimeout bounds every reply write: a client that stops reading
// (full kernel send buffer) stalls only its own connection, and only for
// this long — reply flushers must never be parked on a dead peer
// forever or Close could not drain them.
const writeTimeout = 30 * time.Second

// Options configure a front-end. At least one of HTTPAddr and TCPAddr
// must be set.
type Options struct {
	// HTTPAddr binds the JSON endpoint ("" disables; "127.0.0.1:0" for an
	// ephemeral port). Routes: POST /submit, GET /stats, GET /shardz,
	// GET /healthz.
	HTTPAddr string
	// TCPAddr binds the binary endpoint ("" disables).
	TCPAddr string
	// MaxQueue bounds each model's admitted-but-unfinished queries;
	// submissions beyond it are rejected with 429/NACK. 0 uses
	// DefaultMaxQueue. The bound is split evenly across shards.
	MaxQueue int
	// Shards is the number of independent front-door shards: accept
	// loops per transport, admission quota slices, waiter pools, and
	// histogram stripes. 0 or 1 runs unsharded.
	Shards int
	// AuthTokens is the static bearer-token allow list. Non-empty makes
	// both transports require a token (HTTP: Authorization: Bearer; TCP:
	// HelloAck.Token); unauthenticated submissions get UnauthorizedMsg.
	// Empty leaves the front door open.
	AuthTokens []string
	// RateLimit caps each client's sustained submit rate in queries/sec
	// (token bucket, one per auth token — or one shared anonymous bucket
	// when no tokens are configured). 0 disables rate limiting.
	RateLimit float64
	// RateBurst is the token bucket depth; 0 derives max(1, RateLimit).
	RateBurst int
	// Logf, when set, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

// frontShard is one shard's slice of a model's admission state and
// accounting. All fields are atomic and the whole struct is padded to
// its own cache lines: the hot path never takes a lock and shards never
// false-share.
type frontShard struct {
	queue     atomic.Int64 // admitted-but-unfinished
	submitted atomic.Int64
	http      atomic.Int64
	tcp       atomic.Int64
	rejected  atomic.Int64
	limited   atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	_         [64]byte // keep the next shard's counters off this line
}

// admit reserves one slot in the shard's bounded queue; false rejects.
func (fs *frontShard) admit(max int64) bool {
	for {
		cur := fs.queue.Load()
		if cur >= max {
			return false
		}
		if fs.queue.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// modelFront is one served model's admission state: a quota slice per
// shard plus the model's flight-recorder shard (shared with the
// controller), where the front-end stamps StageAdmit and StageIngress.
type modelFront struct {
	name   string
	mo     *obs.ModelObs
	shards []frontShard
}

// snapshot sums the model's counters across shards. Submitted is read
// first (all shards) and queue before the outcome counters: combined
// with the writers' ordering (admit raises queue before submitted; the
// waiter records the outcome before releasing the slot), each shard —
// and therefore the sum — never lets completed+failed+queue fall short
// of submitted in any snapshot. A concurrent query may transiently
// count twice, never zero times.
func (m *modelFront) snapshot() server.IngressStats {
	var st server.IngressStats
	for i := range m.shards {
		st.Submitted += m.shards[i].submitted.Load()
	}
	for i := range m.shards {
		st.Queue += m.shards[i].queue.Load()
	}
	for i := range m.shards {
		fs := &m.shards[i]
		st.Completed += fs.completed.Load()
		st.Failed += fs.failed.Load()
		st.Rejected += fs.rejected.Load()
		st.RateLimited += fs.limited.Load()
		st.HTTP += fs.http.Load()
		st.TCP += fs.tcp.Load()
	}
	return st
}

// shard is one front-door lane: its TCP waiter pool and connection
// accounting. Per-model admission counters live in modelFront.shards,
// indexed by the shard's id.
type shard struct {
	id    int
	conns atomic.Int64 // accepted connections, both transports
	pool  waiterPool
}

// ShardStats is one shard's cross-model accounting, for GET /shardz.
type ShardStats struct {
	Shard       int   `json:"shard"`
	Conns       int64 `json:"conns"`
	Submitted   int64 `json:"submitted"`
	Rejected    int64 `json:"rejected"`
	RateLimited int64 `json:"rate_limited"`
	Queue       int64 `json:"queue"`
}

// Server is one running front-end over a controller. Build it with New
// (it starts serving immediately) and stop it with Close: the listeners
// go away first, then every admitted query finishes and its reply is
// delivered — an orderly Close drops nothing.
type Server struct {
	ctrl     *server.Controller
	perShard int64 // per-shard, per-model admission quota
	nshards  int
	logf     func(format string, args ...any)
	auth     *authTable // nil: no auth, no rate limiting

	models map[string]*modelFront
	order  []string

	// unrouted counts rejections that never resolved to a model section
	// — unknown-model submissions and unauthenticated clients — surfaced
	// as Stats.IngressUnrouted through the augmenter.
	unrouted atomic.Int64

	shards  []*shard
	httpLns []net.Listener
	tcpLns  []net.Listener

	wg        sync.WaitGroup // accept loops + connection loops + waiters
	closed    chan struct{}
	closeOnce sync.Once

	tracker server.ConnTracker
}

// New binds the configured endpoints over a running controller, registers
// the stats augmenter, and starts serving.
func New(ctrl *server.Controller, opts Options) (*Server, error) {
	if ctrl == nil {
		return nil, errors.New("ingress: needs a controller")
	}
	if opts.HTTPAddr == "" && opts.TCPAddr == "" {
		return nil, errors.New("ingress: needs at least one of an HTTP and a TCP address")
	}
	if opts.MaxQueue < 0 {
		return nil, fmt.Errorf("ingress: negative queue bound %d", opts.MaxQueue)
	}
	if opts.Shards < 0 {
		return nil, fmt.Errorf("ingress: negative shard count %d", opts.Shards)
	}
	if opts.RateLimit < 0 {
		return nil, fmt.Errorf("ingress: negative rate limit %v", opts.RateLimit)
	}
	if opts.RateBurst < 0 {
		return nil, fmt.Errorf("ingress: negative rate burst %d", opts.RateBurst)
	}
	for _, tok := range opts.AuthTokens {
		if tok == "" {
			return nil, errors.New("ingress: empty auth token")
		}
	}
	maxQueue := int64(opts.MaxQueue)
	if maxQueue == 0 {
		maxQueue = DefaultMaxQueue
	}
	nshards := opts.Shards
	if nshards < 1 {
		nshards = 1
	}
	s := &Server{
		ctrl: ctrl,
		// Ceil split: the aggregate bound rounds up to keep every shard
		// nonzero; with one shard it is exactly MaxQueue.
		perShard: (maxQueue + int64(nshards) - 1) / int64(nshards),
		nshards:  nshards,
		logf:     opts.Logf,
		auth:     newAuthTable(opts.AuthTokens, opts.RateLimit, opts.RateBurst),
		models:   make(map[string]*modelFront),
		closed:   make(chan struct{}),
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	for _, name := range ctrl.Models() {
		s.models[name] = &modelFront{
			name:   name,
			mo:     ctrl.Obs().Model(name),
			shards: make([]frontShard, nshards),
		}
		s.order = append(s.order, name)
	}
	for i := 0; i < nshards; i++ {
		sh := &shard{id: i}
		sh.pool.wg = &s.wg
		sh.pool.run = s.runWait
		s.shards = append(s.shards, sh)
	}
	closeAll := func() {
		for _, ln := range s.httpLns {
			ln.Close()
		}
		for _, ln := range s.tcpLns {
			ln.Close()
		}
	}
	var err error
	if opts.HTTPAddr != "" {
		if s.httpLns, err = listenShards(opts.HTTPAddr, nshards); err != nil {
			return nil, fmt.Errorf("ingress: binding HTTP %s: %w", opts.HTTPAddr, err)
		}
	}
	if opts.TCPAddr != "" {
		if s.tcpLns, err = listenShards(opts.TCPAddr, nshards); err != nil {
			closeAll()
			return nil, fmt.Errorf("ingress: binding TCP %s: %w", opts.TCPAddr, err)
		}
	}
	for i, sh := range s.shards {
		if len(s.httpLns) > 0 {
			s.wg.Add(1)
			go s.acceptLoop(s.httpLns[i%len(s.httpLns)], sh, s.serveHTTPConn)
		}
		if len(s.tcpLns) > 0 {
			s.wg.Add(1)
			go s.acceptLoop(s.tcpLns[i%len(s.tcpLns)], sh, s.serveTCPConn)
		}
	}
	ctrl.SetStatsAugmenter(s.augment)
	s.logf("ingress: serving (http %s, tcp %s, queue %d per model, %d shard(s))",
		s.HTTPAddr(), s.TCPAddr(), maxQueue, nshards)
	return s, nil
}

// listenShards binds n listeners to addr with SO_REUSEPORT so the kernel
// spreads connections across the shards' accept loops. Platforms without
// reuseport (and the n==1 case) get a single listener; with fewer
// listeners than shards the accept loops share them.
func listenShards(addr string, n int) ([]net.Listener, error) {
	if n <= 1 || !reusePortOK {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return nil, err
		}
		return []net.Listener{ln}, nil
	}
	lc := net.ListenConfig{Control: reusePortControl}
	first, err := lc.Listen(context.Background(), "tcp", addr)
	if err != nil {
		// The control hook can fail on exotic socket setups; a single
		// plain listener shared by every shard's accept loop still works.
		ln, err2 := net.Listen("tcp", addr)
		if err2 != nil {
			return nil, err
		}
		return []net.Listener{ln}, nil
	}
	lns := []net.Listener{first}
	// The remaining binds reuse the first listener's concrete port (addr
	// may have asked for an ephemeral one).
	concrete := first.Addr().String()
	for i := 1; i < n; i++ {
		ln, err := lc.Listen(context.Background(), "tcp", concrete)
		if err != nil {
			// Degrade to the listeners bound so far; accept loops share.
			break
		}
		lns = append(lns, ln)
	}
	return lns, nil
}

// acceptLoop feeds one listener's connections to one shard's serve
// function. With reuseport each shard accepts from its own listener;
// otherwise the shards' loops share one listener and the kernel
// round-robins Accept wakeups.
func (s *Server) acceptLoop(ln net.Listener, sh *shard, serve func(net.Conn, *shard)) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		sh.conns.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			serve(conn, sh)
		}()
	}
}

// HTTPAddr returns the bound HTTP address, "" when disabled.
func (s *Server) HTTPAddr() string {
	if len(s.httpLns) == 0 {
		return ""
	}
	return s.httpLns[0].Addr().String()
}

// TCPAddr returns the bound binary-TCP address, "" when disabled.
func (s *Server) TCPAddr() string {
	if len(s.tcpLns) == 0 {
		return ""
	}
	return s.tcpLns[0].Addr().String()
}

// Stats snapshots the per-model front-end counters, summed over shards.
func (s *Server) Stats() map[string]server.IngressStats {
	out := make(map[string]server.IngressStats, len(s.order))
	for _, name := range s.order {
		out[name] = s.models[name].snapshot()
	}
	return out
}

// ShardStats snapshots the per-shard accounting across models.
func (s *Server) ShardStats() []ShardStats {
	out := make([]ShardStats, s.nshards)
	for i, sh := range s.shards {
		st := &out[i]
		st.Shard = i
		st.Conns = sh.conns.Load()
		for _, name := range s.order {
			fs := &s.models[name].shards[i]
			st.Submitted += fs.submitted.Load()
			st.Rejected += fs.rejected.Load()
			st.RateLimited += fs.limited.Load()
			st.Queue += fs.queue.Load()
		}
	}
	return out
}

// Unrouted reports the front-door rejections that never resolved to a
// model: unknown-model submissions and unauthenticated clients.
func (s *Server) Unrouted() int64 { return s.unrouted.Load() }

// augment merges the front-end counters into a controller Stats snapshot.
func (s *Server) augment(st *server.Stats) {
	if st.Ingress == nil {
		st.Ingress = make(map[string]server.IngressStats, len(s.order))
	}
	for _, name := range s.order {
		st.Ingress[name] = s.models[name].snapshot()
	}
	st.IngressUnrouted = s.unrouted.Load()
}

// submitOpts converts a request's wire hints into controller submit
// options; t0 anchors the deadline.
func submitOpts(session []byte, deadlineMS int64, t0 time.Time) server.SubmitOptions {
	var opts server.SubmitOptions
	if len(session) > 0 {
		opts.SessionHash = server.SessionHash(session)
	}
	if deadlineMS > 0 {
		opts.Deadline = t0.Add(time.Duration(deadlineMS) * time.Millisecond)
	}
	return opts
}

// Close stops the front-end in order: listeners go away (nothing new is
// admitted), in-flight HTTP requests and admitted TCP queries finish and
// reply, then the connections close. It must run before the controller's
// Close so those in-flight queries can still complete.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.closed)
		for _, ln := range s.tcpLns {
			ln.Close()
		}
		for _, ln := range s.httpLns {
			ln.Close()
		}
		// Pop the per-connection read loops out of their blocked reads;
		// their waiters finish and reply before the conns close.
		s.tracker.SweepReadDeadlines()
		// Stop the idle waiters; busy ones finish their query first, and
		// late work falls back to fresh goroutines.
		for _, sh := range s.shards {
			sh.pool.close()
		}
		// Bounded drain: reply writes carry writeTimeout deadlines, so
		// flushers on a stalled client unblock on their own; the
		// force-close below is the backstop that guarantees Close always
		// returns (an unkillable Close would wedge Autopilot.Close).
		done := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(writeTimeout + 5*time.Second):
			s.tracker.CloseAll()
			<-done
		}
		// The controller may outlive this front-end; stop reporting a
		// section for an ingress that no longer exists.
		s.ctrl.SetStatsAugmenter(nil)
		s.logf("ingress: closed")
	})
}
