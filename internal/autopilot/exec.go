package autopilot

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"kairos/internal/server"
)

// ExecFleet's lifecycle timeouts.
const (
	// launchTimeout bounds waiting for a spawned kairosd's ready line and
	// Hello banner.
	launchTimeout = 10 * time.Second
	// stopTimeout bounds a SIGTERM'd kairosd's graceful drain before it is
	// killed.
	stopTimeout = 10 * time.Second
)

// ExecFleet is the exec actuation Provider: it spawns real kairosd
// processes (cmd/kairosd) on the local host, one per instance. Launch
// starts `kairosd -addr 127.0.0.1:0`, waits for the daemon's ready line
// to learn the bound port, health-checks the Hello banner (the announced
// model and type must match what was asked for), and only then hands the
// address to the actuator. Stop sends SIGTERM — kairosd drains in-flight
// queries before exiting — and reaps the process, escalating to SIGKILL
// after stopTimeout.
//
// It is the stepping stone from the in-process Fleet toward SSH/cloud
// provisioning: the control plane already manages real processes over
// real sockets; only "local exec" stands in for "remote host".
type ExecFleet struct {
	bin       string
	timeScale float64
	models    map[string]bool // empty allows any model kairosd can resolve

	// Logf, when set, receives one line per process lifecycle event.
	Logf func(format string, args ...any)

	spotMarket

	mu    sync.Mutex
	procs map[string]*execProc // keyed by listen address; nil once closed
}

var (
	_ Provider  = (*ExecFleet)(nil)
	_ Reaper    = (*ExecFleet)(nil)
	_ Noticer   = (*ExecFleet)(nil)
	_ Preempter = (*ExecFleet)(nil)
)

type execProc struct {
	model    string
	typeName string
	cmd      *exec.Cmd
	// waited delivers cmd.Wait exactly once (buffered; the reaper
	// goroutine never blocks).
	waited chan error
	stderr *bytes.Buffer
}

// NewExecFleet prepares an exec provider spawning bin (a kairosd binary)
// at the given time scale. When models are listed, Launch rejects any
// other model up front; otherwise kairosd's own model registry decides.
func NewExecFleet(bin string, timeScale float64, models ...string) *ExecFleet {
	if timeScale <= 0 {
		timeScale = 1
	}
	byName := make(map[string]bool, len(models))
	for _, m := range models {
		byName[m] = true
	}
	return &ExecFleet{
		bin:        bin,
		timeScale:  timeScale,
		models:     byName,
		spotMarket: newSpotMarket(),
		procs:      map[string]*execProc{},
	}
}

// Preempt implements Preempter, emulating the cloud reclaiming spot
// capacity: the kairosd at addr is SIGKILLed once the notice window
// elapses (see spotMarket.preempt).
func (f *ExecFleet) Preempt(addr string, notice time.Duration) (time.Time, error) {
	if f.Pid(addr) == 0 {
		return time.Time{}, fmt.Errorf("autopilot: no exec instance at %s", addr)
	}
	// Kill's only error is "already gone": the drain won the race.
	return f.preempt(addr, notice, func() { _ = f.Kill(addr) }), nil
}

// TimeScale returns the fleet's time dilation factor.
func (f *ExecFleet) TimeScale() float64 { return f.timeScale }

func (f *ExecFleet) logf(format string, args ...any) {
	if f.Logf != nil {
		f.Logf(format, args...)
	}
}

// parseReadyLine extracts the listen address from kairosd's ready line,
// e.g. "kairosd: g4dn.xlarge serving NCF on 127.0.0.1:41837 (timescale
// 1.00)". The line format is a contract between cmd/kairosd and this
// provider.
func parseReadyLine(line string) (string, bool) {
	if !strings.HasPrefix(line, "kairosd: ") {
		return "", false
	}
	fields := strings.Fields(line)
	for i := 0; i+1 < len(fields); i++ {
		if fields[i] == "on" {
			return fields[i+1], true
		}
	}
	return "", false
}

// probeHello health-checks a freshly-launched instance: dial, read the
// Hello banner, hold it to the version rule the controller's dial will
// apply (server.Hello.Check) and to the model and type that were asked
// for — so a stale kairosd fails its launch, not the AddInstance after it. The probe connection is closed without an ack; the instance
// drops it like any peer that never completes the handshake.
func probeHello(addr, model, typeName string, timeout time.Duration) error {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return fmt.Errorf("dialing %s: %w", addr, err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(timeout))
	var hello server.Hello
	if err := server.ReadFrame(conn, &hello); err != nil {
		return fmt.Errorf("reading Hello banner from %s: %w", addr, err)
	}
	if err := hello.Check(); err != nil {
		return fmt.Errorf("probing %s: %w", addr, err)
	}
	if hello.Model != model || hello.TypeName != typeName {
		return fmt.Errorf("instance at %s announces %s/%s, want %s/%s",
			addr, hello.TypeName, hello.Model, typeName, model)
	}
	return nil
}

// Launch spawns one kairosd serving the named model as the given type on
// an ephemeral loopback port and returns the bound address once the
// process passes its banner health check.
func (f *ExecFleet) Launch(model, typeName string) (string, error) {
	if len(f.models) > 0 && !f.models[model] {
		return "", fmt.Errorf("autopilot: exec fleet does not serve model %q", model)
	}
	f.mu.Lock()
	closed := f.procs == nil
	f.mu.Unlock()
	if closed {
		return "", errClosed
	}
	cmd := exec.Command(f.bin,
		"-addr", "127.0.0.1:0",
		"-type", typeName,
		"-model", model,
		"-timescale", strconv.FormatFloat(f.timeScale, 'g', -1, 64),
	)
	// Own process group (unix): a terminal Ctrl-C must reach only the
	// control plane, which then shuts the fleet down in the documented
	// order (ingress first, controller drain, per-instance SIGTERM) — not
	// broadside-SIGINT every kairosd out from under in-flight queries.
	detachProcessGroup(cmd)
	stderr := &bytes.Buffer{}
	cmd.Stderr = stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return "", err
	}
	if err := cmd.Start(); err != nil {
		return "", fmt.Errorf("autopilot: starting %s: %w", f.bin, err)
	}
	waited := make(chan error, 1)
	go func() { waited <- cmd.Wait() }()

	addrCh := make(chan string, 1)
	eofCh := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if addr, ok := parseReadyLine(sc.Text()); ok {
				addrCh <- addr
				// Keep draining stdout so the daemon never blocks on a
				// full pipe.
				io.Copy(io.Discard, stdout)
				return
			}
		}
		close(eofCh)
	}()

	// fail reaps the process before reading stderr (the exec package's
	// capture goroutine finishes at Wait).
	fail := func(cause error) (string, error) {
		cmd.Process.Kill()
		<-waited
		if msg := strings.TrimSpace(stderr.String()); msg != "" {
			return "", fmt.Errorf("autopilot: exec %s/%s: %w (stderr: %s)", model, typeName, cause, msg)
		}
		return "", fmt.Errorf("autopilot: exec %s/%s: %w", model, typeName, cause)
	}
	var addr string
	select {
	case addr = <-addrCh:
	case <-eofCh:
		// Stdout closed without a ready line: usually the process died,
		// but a wrapper that redirects stdout and keeps running must not
		// hang the actuation — fail() kills (harmless if already dead)
		// and reaps either way.
		return fail(fmt.Errorf("stdout closed before the ready line"))
	case <-time.After(launchTimeout):
		return fail(fmt.Errorf("no ready line within %v", launchTimeout))
	}
	if err := probeHello(addr, model, typeName, launchTimeout); err != nil {
		return fail(err)
	}
	f.mu.Lock()
	if closed = f.procs == nil; !closed { // else Close won the race while the daemon was starting
		f.procs[addr] = &execProc{model: model, typeName: typeName, cmd: cmd, waited: waited, stderr: stderr}
	}
	f.mu.Unlock()
	if closed {
		return fail(errClosed)
	}
	f.logf("autopilot: exec launched %s/%s pid %d at %s", model, typeName, cmd.Process.Pid, addr)
	return addr, nil
}

// Stop gracefully stops the kairosd at addr: SIGTERM, wait for the
// daemon's drain-and-exit, SIGKILL after stopTimeout.
func (f *ExecFleet) Stop(addr string) error {
	f.mu.Lock()
	p := f.procs[addr]
	delete(f.procs, addr)
	f.mu.Unlock()
	if p == nil {
		return fmt.Errorf("autopilot: no exec instance at %s", addr)
	}
	return f.stop(addr, p)
}

func (f *ExecFleet) stop(addr string, p *execProc) error {
	terminateProcess(p.cmd.Process) // a dead process just fails the signal; Wait below settles it
	select {
	case err := <-p.waited:
		if err != nil {
			return fmt.Errorf("autopilot: kairosd %s/%s at %s exited uncleanly: %w", p.model, p.typeName, addr, err)
		}
		f.logf("autopilot: exec stopped %s/%s at %s", p.model, p.typeName, addr)
		return nil
	case <-time.After(stopTimeout):
		p.cmd.Process.Kill()
		<-p.waited
		return fmt.Errorf("autopilot: kairosd %s/%s at %s ignored SIGTERM for %v; killed", p.model, p.typeName, addr, stopTimeout)
	}
}

// Reap releases a kairosd that died on its own (implements Reaper): the
// process is killed if anything is somehow still running, the zombie is
// waited on, and the bookkeeping entry is dropped. Unknown addresses are
// fine — the fault may already have been reaped.
func (f *ExecFleet) Reap(addr string) error {
	f.mu.Lock()
	p := f.procs[addr]
	delete(f.procs, addr)
	f.mu.Unlock()
	if p == nil {
		return nil
	}
	p.cmd.Process.Kill() // harmless when already dead
	<-p.waited
	f.logf("autopilot: exec reaped %s/%s at %s", p.model, p.typeName, addr)
	return nil
}

// Pid returns the OS process ID of the kairosd at addr, or 0 when the
// address is unknown.
func (f *ExecFleet) Pid(addr string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p := f.procs[addr]; p != nil {
		return p.cmd.Process.Pid
	}
	return 0
}

// signal sends the kairosd at addr a signal, logging it as verb.
func (f *ExecFleet) signal(addr, verb string, send func(*os.Process) error) error {
	f.mu.Lock()
	p := f.procs[addr]
	f.mu.Unlock()
	if p == nil {
		return fmt.Errorf("autopilot: no exec instance at %s", addr)
	}
	f.logf("autopilot: exec %s %s/%s pid %d at %s", verb, p.model, p.typeName, p.cmd.Process.Pid, addr)
	return send(p.cmd.Process)
}

// Kill SIGKILLs the kairosd at addr without reaping it — the crash fault.
// The controller discovers the death through its connection; the reap
// happens when the fault-heal path calls Reap for the dead address.
func (f *ExecFleet) Kill(addr string) error { return f.signal(addr, "killing", (*os.Process).Kill) }

// Wedge SIGSTOPs the kairosd at addr — the stalled-instance fault: the
// process keeps its sockets open but stops replying. Resume un-wedges it.
func (f *ExecFleet) Wedge(addr string) error { return f.signal(addr, "wedging", suspendProcess) }

// Resume SIGCONTs a wedged kairosd at addr.
func (f *ExecFleet) Resume(addr string) error { return f.signal(addr, "resuming", resumeProcess) }

// Addrs lists the running processes' addresses in unspecified order.
func (f *ExecFleet) Addrs() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.procs))
	for addr := range f.procs {
		out = append(out, addr)
	}
	return out
}

// Size returns the number of running processes.
func (f *ExecFleet) Size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.procs)
}

// Close stops every running process; Launch fails from here on. The stops
// are independent, so they run concurrently: a fleet of wedged daemons
// costs one stopTimeout, not one per process.
func (f *ExecFleet) Close() error {
	f.mu.Lock()
	procs := f.procs
	f.procs = nil
	f.mu.Unlock()
	errs := make(chan error, len(procs))
	for addr, p := range procs {
		go func(addr string, p *execProc) { errs <- f.stop(addr, p) }(addr, p)
	}
	var first error
	for range procs {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}
