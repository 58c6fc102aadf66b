package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"kairos/internal/cloud"
	"kairos/internal/models"
)

// InstanceServer emulates one cloud instance hosting a model copy: it
// accepts a controller connection and serves one query at a time (the
// paper's no-contention serving rule, Sec. 6), sleeping the model's
// calibrated latency scaled by TimeScale.
type InstanceServer struct {
	// TypeName is the instance type this server emulates.
	TypeName string
	// Model is the served model.
	Model models.Model
	// TimeScale compresses real time: service sleeps TimeScale * latency.
	// 1.0 is real time; tests use small fractions. Zero defaults to 1.
	TimeScale float64

	mu sync.Mutex // serializes service: one query at a time

	listener net.Listener
	wg       sync.WaitGroup

	// draining is closed by Shutdown; active connections finish serving
	// their fully-received requests and then go away.
	draining  chan struct{}
	drainOnce sync.Once
	closeOnce sync.Once
	closeErr  error

	tracker ConnTracker
}

// NewInstanceServer validates the fields and prepares a server.
func NewInstanceServer(typeName string, model models.Model, timeScale float64) (*InstanceServer, error) {
	if typeName == "" {
		return nil, errors.New("server: empty instance type")
	}
	if _, ok := model.Curves[typeName]; !ok {
		// Spot variants serve on the same hardware as their on-demand base
		// type, so they share its calibrated curve.
		if _, ok := model.Curves[cloud.OnDemandName(typeName)]; !ok {
			return nil, fmt.Errorf("server: model %s has no curve for %s", model.Name, typeName)
		}
	}
	if timeScale < 0 {
		return nil, errors.New("server: negative time scale")
	}
	if timeScale == 0 {
		timeScale = 1
	}
	return &InstanceServer{
		TypeName:  typeName,
		Model:     model,
		TimeScale: timeScale,
		draining:  make(chan struct{}),
	}, nil
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral test port) and
// serves connections until Close.
func (s *InstanceServer) Start(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.listener = l
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the bound address; only valid after Start.
func (s *InstanceServer) Addr() string { return s.listener.Addr().String() }

// Close stops the listener and waits for in-flight connections. It does
// not force active connections shut; peers (the controller) close them.
// Idempotent, and safe after Shutdown.
func (s *InstanceServer) Close() error {
	s.closeOnce.Do(func() {
		err := s.listener.Close()
		if err != nil && errors.Is(err, net.ErrClosed) {
			err = nil // Shutdown already closed it
		}
		s.closeErr = err
		s.wg.Wait()
	})
	return s.closeErr
}

// Kill abruptly terminates the server: the listener and every active
// connection close immediately, dropping whatever was in flight — the
// in-process analogue of SIGKILLing a kairosd. Fault-injection harnesses
// use it to exercise the controller's eviction and redispatch path; an
// orderly teardown wants Close or Shutdown instead.
func (s *InstanceServer) Kill() error {
	s.closeOnce.Do(func() {
		err := s.listener.Close()
		if err != nil && errors.Is(err, net.ErrClosed) {
			err = nil
		}
		s.tracker.CloseAll()
		s.closeErr = err
		s.wg.Wait()
	})
	return s.closeErr
}

// Shutdown gracefully drains the server: the listener closes so nothing
// new connects, every fully-received request is served and its reply
// flushed, and only then do the connections go away — so a SIGTERM'd
// kairosd (see the exec actuation provider) never drops a query it has
// accepted. Requests still in flight on the network when the drain
// starts are not waited for (beyond the drainLook they may happen to
// land in); the controller sees the close and fails them like any lost
// instance. Shutdown waits up to timeout for the drain before
// force-closing lingering connections.
func (s *InstanceServer) Shutdown(timeout time.Duration) error {
	s.drainOnce.Do(func() { close(s.draining) })
	err := s.listener.Close()
	if err != nil && errors.Is(err, net.ErrClosed) {
		err = nil
	}
	// Expired read deadlines pop blocked readers out of their syscalls;
	// each serve loop then collects what its socket had already received
	// (see serveConn) before it exits.
	s.tracker.SweepReadDeadlines()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		s.tracker.CloseAll()
		<-done
		if err == nil {
			err = fmt.Errorf("server: drain exceeded %v; connections force-closed", timeout)
		}
	}
	return err
}

// drainExit reports whether a read error is the drain deadline firing
// (an orderly exit with everything buffered already served) rather than
// a real connection failure.
func (s *InstanceServer) drainExit(err error) bool {
	select {
	case <-s.draining:
	default:
		return false
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func (s *InstanceServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// serveConn handles one controller connection: banner, the strict version
// check, then a request loop. Service is serialized across every
// connection so the instance truly serves one query at a time.
func (s *InstanceServer) serveConn(conn net.Conn) {
	defer conn.Close()
	defer s.tracker.Track(conn)()
	wc := newWireConn(conn)
	if err := wc.writeJSON(Hello{TypeName: s.TypeName, Model: s.Model.Name, Proto: ProtoSession}); err != nil {
		return
	}
	// The first frame must be the controller's ack of exactly this
	// version. Anything else — another number, a frame that is not an ack —
	// is a stale or foreign peer whose frames would misdecode: refuse it.
	var ack HelloAck
	if err := ReadFrame(wc.br, &ack); err != nil || ack.Proto != ProtoSession {
		return
	}
	queued := 0  // replies buffered but not yet flushed
	look := true // a drain timeout may still be hiding received requests
	for {
		rv, err := wc.readRequest()
		if err != nil {
			if !s.drainExit(err) {
				return
			}
			if look {
				// An expired deadline fails the read without looking at the
				// socket, so a request the kernel already holds would be
				// dropped, and closing over it resets the connection. Look
				// once more under a deadline still ahead; only a timeout with
				// nothing read since means everything received was served.
				look = false
				conn.SetReadDeadline(time.Now().Add(drainLook))
				continue
			}
			wc.flush()
			return
		}
		look = true
		// Compare in place (the conversion in the comparison does not
		// allocate); validate only needs the foreign name on mismatch.
		model := s.Model.Name
		if len(rv.Model) > 0 && string(rv.Model) != s.Model.Name {
			model = string(rv.Model)
		}
		reply := s.validate(rv.ID, rv.Batch, model)
		if reply.Err == "" {
			serviceMS := s.Model.Latency(s.TypeName, rv.Batch)
			// A reply may only be withheld across the next service if that
			// service is cheaper than the syscall being saved — never delay
			// an already-finished query's completion behind a real model
			// sleep.
			if queued > 0 && time.Duration(serviceMS*s.TimeScale*float64(time.Millisecond)) > promptReplyBudget {
				if err := wc.flush(); err != nil {
					return
				}
				queued = 0
			}
			reply = s.execute(rv.ID, serviceMS, rv.Traced)
		} else if rv.Traced {
			reply.Traced = true
		}
		if err := wc.queueReply(reply); err != nil {
			return
		}
		queued++
		// Coalesce: only flush when the next request is not already waiting
		// in the read buffer, so a dispatch burst is answered in one syscall.
		if wc.br.Buffered() == 0 {
			if err := wc.flush(); err != nil {
				return
			}
			queued = 0
		}
	}
}

// drainLook is how far ahead a draining connection re-arms its read
// deadline to collect what the kernel already received. Data that is there
// returns at once; the wait only bounds the empty case, and is long enough
// that a scheduling stall between arming and reading cannot expire it.
const drainLook = 50 * time.Millisecond

// promptReplyBudget bounds how much emulated service time may pass in
// front of an unflushed reply: batching replies across sub-syscall-cost
// sleeps (time-compressed benchmarks) is free, while at real time scales
// every reply precedes the next query's sleep.
const promptReplyBudget = 100 * time.Microsecond

// validate checks a request against the hosted model and calibrated batch
// range; the returned Reply carries an error on rejection and is the
// zero-valued success otherwise.
func (s *InstanceServer) validate(id int64, batch int, model string) Reply {
	if model != "" && model != s.Model.Name {
		return Reply{ID: id, Err: fmt.Sprintf("instance serves model %s, not %s", s.Model.Name, model)}
	}
	if batch < 1 || batch > models.MaxBatch {
		return Reply{ID: id, Err: fmt.Sprintf("batch %d outside [1,%d]", batch, models.MaxBatch)}
	}
	return Reply{ID: id}
}

// execute performs the (emulated) inference for a validated request.
// Traced requests additionally measure how long they waited for the
// serve slot (the instance serves one query at a time, so requests
// queue on s.mu) and carry it back as Reply.WaitNS.
func (s *InstanceServer) execute(id int64, serviceMS float64, traced bool) Reply {
	var t0 time.Time
	if traced {
		t0 = time.Now()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := Reply{ID: id, ServiceMS: serviceMS}
	if traced {
		rep.Traced = true
		rep.WaitNS = int64(time.Since(t0))
	}
	time.Sleep(time.Duration(serviceMS * s.TimeScale * float64(time.Millisecond)))
	return rep
}
