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
// The front door is one lane — one listener per transport, a model's
// counters as plain atomics; DESIGN.md, "Ingress at
// scale", has the measurement behind that and what would have to be
// observed before lanes come back. Queries may carry a session key routed
// with consistent-hash-bounded-load affinity and a deadline enforced by
// the controller's dispatch loop; untrusted clients are gated by a static
// bearer-token list and per-client rate limits.
package ingress

import (
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

// Options configure a front-end. At least one of HTTPAddr and TCPAddr
// must be set.
type Options struct {
	// HTTPAddr binds the JSON endpoint ("" disables; "127.0.0.1:0" for an
	// ephemeral port). Routes: POST /submit, GET /stats, GET /healthz.
	HTTPAddr string
	// TCPAddr binds the binary endpoint ("" disables).
	TCPAddr string
	// MaxQueue bounds each model's admitted-but-unfinished queries;
	// submissions beyond it are rejected with 429/NACK. 0 uses
	// DefaultMaxQueue.
	MaxQueue int
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

// Validate reports the first reason New would refuse o. It is the door's
// only option check: callers that launch something expensive before New
// (the autopilot's fleet) run it first.
func (o Options) Validate() error {
	if o.HTTPAddr == "" && o.TCPAddr == "" {
		return errors.New("ingress: needs at least one of an HTTP and a TCP address")
	}
	if o.MaxQueue < 0 {
		return fmt.Errorf("ingress: negative queue bound %d", o.MaxQueue)
	}
	if o.RateLimit < 0 {
		return fmt.Errorf("ingress: negative rate limit %v", o.RateLimit)
	}
	if o.RateBurst < 0 {
		return fmt.Errorf("ingress: negative rate burst %d", o.RateBurst)
	}
	if o.RateLimit != 0 {
		if _, _, err := limiterParams(o.RateLimit, o.RateBurst); err != nil {
			return err
		}
	}
	for _, tok := range o.AuthTokens {
		if tok == "" {
			return errors.New("ingress: empty auth token")
		}
	}
	return nil
}

// modelFront is one served model's admission state and accounting, plus
// the model's flight recorder (shared with the controller), where the
// front-end stamps StageAdmit and StageIngress. All counters are atomic:
// the hot path never takes a lock.
type modelFront struct {
	name string
	mo   *obs.ModelObs

	queue     atomic.Int64 // admitted-but-unfinished
	submitted atomic.Int64
	http      atomic.Int64
	tcp       atomic.Int64
	rejected  atomic.Int64
	limited   atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
}

// snapshot reads the model's counters. Submitted is read first and queue
// before the outcome counters: combined with the writers' ordering (admit
// raises queue before submitted; settle records the outcome before
// releasing the slot), completed+failed+queue never falls short of
// submitted in any snapshot. A concurrent query may transiently count
// twice, never zero times.
func (m *modelFront) snapshot() server.IngressStats {
	var st server.IngressStats
	st.Submitted = m.submitted.Load()
	st.Queue = m.queue.Load()
	st.Completed = m.completed.Load()
	st.Failed = m.failed.Load()
	st.Rejected = m.rejected.Load()
	st.RateLimited = m.limited.Load()
	st.HTTP = m.http.Load()
	st.TCP = m.tcp.Load()
	return st
}

// Server is one running front-end over a controller. Build it with New
// (it starts serving immediately) and stop it with Close: the listeners
// go away first, then every admitted query finishes and its reply is
// delivered — an orderly Close drops nothing.
type Server struct {
	ctrl     *server.Controller
	maxQueue int64 // per-model admission bound
	logf     func(format string, args ...any)
	auth     *authTable // nil: no auth, no rate limiting

	models map[string]*modelFront
	order  []string

	// unrouted counts rejections that never resolved to a model section
	// — unknown-model submissions and unauthenticated clients — surfaced
	// as Stats.IngressUnrouted through the augmenter.
	unrouted atomic.Int64

	httpLn net.Listener // nil when the transport is disabled
	tcpLn  net.Listener

	wg        sync.WaitGroup // accept loops + connection loops (each joins its writer)
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
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		ctrl:     ctrl,
		maxQueue: int64(opts.MaxQueue),
		logf:     opts.Logf,
		auth:     newAuthTable(opts.AuthTokens, opts.RateLimit, opts.RateBurst),
		models:   make(map[string]*modelFront),
		closed:   make(chan struct{}),
	}
	if s.maxQueue == 0 {
		s.maxQueue = DefaultMaxQueue
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	for _, name := range ctrl.Models() {
		s.models[name] = &modelFront{name: name, mo: ctrl.Obs().Model(name)}
		s.order = append(s.order, name)
	}
	var err error
	if opts.HTTPAddr != "" {
		if s.httpLn, err = net.Listen("tcp", opts.HTTPAddr); err != nil {
			return nil, fmt.Errorf("ingress: binding HTTP %s: %w", opts.HTTPAddr, err)
		}
	}
	if opts.TCPAddr != "" {
		if s.tcpLn, err = net.Listen("tcp", opts.TCPAddr); err != nil {
			if s.httpLn != nil {
				s.httpLn.Close()
			}
			return nil, fmt.Errorf("ingress: binding TCP %s: %w", opts.TCPAddr, err)
		}
	}
	if s.httpLn != nil {
		s.tracker.Serve(s.httpLn, &s.wg, s.serveHTTPConn)
	}
	if s.tcpLn != nil {
		s.tracker.Serve(s.tcpLn, &s.wg, s.serveTCPConn)
	}
	ctrl.SetStatsAugmenter(s.augment)
	s.logf("ingress: serving (http %s, tcp %s, queue %d per model)", s.HTTPAddr(), s.TCPAddr(), s.maxQueue)
	return s, nil
}

// HTTPAddr returns the bound HTTP address, "" when disabled.
func (s *Server) HTTPAddr() string { return lnAddr(s.httpLn) }

// TCPAddr returns the bound binary-TCP address, "" when disabled.
func (s *Server) TCPAddr() string { return lnAddr(s.tcpLn) }

func lnAddr(ln net.Listener) string {
	if ln == nil {
		return ""
	}
	return ln.Addr().String()
}

// Stats snapshots the per-model front-end counters.
func (s *Server) Stats() map[string]server.IngressStats {
	out := make(map[string]server.IngressStats, len(s.order))
	for _, name := range s.order {
		out[name] = s.models[name].snapshot()
	}
	return out
}

// augment merges the front-end counters into a controller Stats snapshot.
func (s *Server) augment(st *server.Stats) {
	st.Ingress = s.Stats()
	st.IngressUnrouted = s.unrouted.Load()
}

// admit is the front door's one admission sequence, shared by both
// transports: auth → model → rate limit → queue bound. It returns the
// model's front with one queue slot reserved (the result owes a settle),
// or nil and the rejection's exact text, which the transport frames its
// own way (HTTP status + Retry-After, binary NACK). t0 is the request's
// receive timestamp. Nothing here allocates except the unknown-model
// text.
func (s *Server) admit(c client, model []byte, tcp bool, t0 time.Time) (*modelFront, string) {
	if c.denied {
		s.unrouted.Add(1)
		return nil, UnauthorizedMsg
	}
	mf := s.models[string(model)]
	if mf == nil {
		s.unrouted.Add(1)
		return nil, fmt.Sprintf("ingress: unknown model %q (serving %v)", model, s.order)
	}
	if s.auth.limited(c) {
		mf.limited.Add(1)
		return nil, RateLimitedMsg
	}
	for {
		cur := mf.queue.Load()
		if cur >= s.maxQueue {
			mf.rejected.Add(1)
			return nil, QueueFullMsg
		}
		if mf.queue.CompareAndSwap(cur, cur+1) {
			break
		}
	}
	mf.submitted.Add(1)
	if tcp {
		mf.tcp.Add(1)
	} else {
		mf.http.Add(1)
	}
	mf.mo.Record(obs.StageAdmit, time.Since(t0))
	return mf, ""
}

// settle closes an admitted query's account with the controller's result:
// outcome first, then the queue slot (the order snapshot relies on), then
// the client's-view latency.
func (mf *modelFront) settle(res server.QueryResult, t0 time.Time) {
	if res.Err != nil {
		mf.failed.Add(1)
	} else {
		mf.completed.Add(1)
	}
	mf.queue.Add(-1)
	mf.mo.Record(obs.StageIngress, time.Since(t0))
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
		if s.tcpLn != nil {
			s.tcpLn.Close()
		}
		if s.httpLn != nil {
			s.httpLn.Close()
		}
		// Pop the per-connection read loops out of their blocked reads;
		// each then waits out its admitted queries, whose replies are
		// written before the conn closes. Every write carries
		// server.WriteTimeout, so a writer on a stalled client unblocks on
		// its own; the drain's force-close is the backstop that guarantees
		// Close always returns (an unkillable Close would wedge
		// Autopilot.Close).
		s.tracker.Drain(server.WriteTimeout+5*time.Second, &s.wg)
		// The controller may outlive this front-end; stop reporting a
		// section for an ingress that no longer exists.
		s.ctrl.SetStatsAugmenter(nil)
		s.logf("ingress: closed")
	})
}
