package server

import (
	"bufio"
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
	s.tracker.Serve(l, &s.wg, s.serveConn)
	return nil
}

// Addr returns the bound address; only valid after Start.
func (s *InstanceServer) Addr() string { return s.listener.Addr().String() }

// Close stops the listener and waits for in-flight connections. It does
// not force active connections shut; peers (the controller) close them.
// Idempotent, and safe after Shutdown.
func (s *InstanceServer) Close() error {
	s.closeOnce.Do(func() {
		s.closeErr = s.closeListener()
		s.wg.Wait()
	})
	return s.closeErr
}

// closeListener stops accepting; a listener Shutdown already closed is
// not an error.
func (s *InstanceServer) closeListener() error {
	if err := s.listener.Close(); !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// Kill abruptly terminates the server: the listener and every active
// connection close immediately, dropping whatever was in flight — the
// in-process analogue of SIGKILLing a kairosd. Fault-injection harnesses
// use it to exercise the controller's eviction and redispatch path; an
// orderly teardown wants Close or Shutdown instead.
func (s *InstanceServer) Kill() error {
	s.closeOnce.Do(func() {
		s.closeErr = s.closeListener()
		s.tracker.closeAll()
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
	err := s.closeListener()
	// The sweep's expired read deadlines pop blocked readers out of their
	// syscalls; each serve loop then collects what its socket had already
	// received (see serveConn) before it exits.
	if derr := s.tracker.Drain(timeout, &s.wg); err == nil {
		err = derr
	}
	return err
}

// drainExit reports whether a read error is the drain deadline firing
// (an orderly exit with everything buffered already served) rather than
// a real connection failure. Past the handshake an instance connection
// reads with no deadline until Shutdown's sweep arms one, so a timeout
// can only be the drain's.
func drainExit(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// serveConn handles one controller connection: the handshake (Greet),
// then a request loop. Service is serialized across every connection so
// the instance truly serves one query at a time. Each reply is handed to
// the connection's Writer as soon as it is served; replies served while a
// write is in flight go out together in the next one.
func (s *InstanceServer) serveConn(conn net.Conn) {
	br := bufio.NewReaderSize(conn, wireBufSize)
	if _, err := s.tracker.Greet(conn, br, Hello{TypeName: s.TypeName, Model: s.Model.Name, Proto: ProtoSession}); err != nil {
		return
	}
	w := NewWriter(conn)
	// The final drain: every served reply is written before the tracker
	// closes the connection.
	defer w.Close()
	var rbuf []byte // scratch for a frame larger than br's window
	look := true    // a drain timeout may still be hiding received requests
	for {
		p, err := ReadFrameView(br, &rbuf)
		var rv RequestView
		if err == nil {
			rv, err = DecodeRequestView(p)
		}
		if err != nil {
			if !drainExit(err) {
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
			reply = s.execute(rv.ID, s.Model.Latency(s.TypeName, rv.Batch), rv.Traced)
		} else if rv.Traced {
			reply.Traced = true
		}
		if w.QueueReply(reply) != nil {
			return // the writer failed and closed the connection
		}
		w.Kick()
	}
}

// drainLook is how far ahead a draining connection re-arms its read
// deadline to collect what the kernel already received. Data that is there
// returns at once; the wait only bounds the empty case, and is long enough
// that a scheduling stall between arming and reading cannot expire it.
const drainLook = 50 * time.Millisecond

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
