package autopilot

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"kairos/internal/server"
)

// A spawned kairosd's lifecycle timeouts.
const (
	// launchTimeout bounds waiting for a spawned kairosd's ready line.
	launchTimeout = 10 * time.Second
	// stopTimeout bounds a SIGTERM'd kairosd's graceful drain before it is
	// killed.
	stopTimeout = 10 * time.Second
)

// NewExecFleet prepares a fleet whose instances are real kairosd
// processes (cmd/kairosd) on the local host, spawned from bin at the given
// time scale. When models are listed, Launch rejects any other model up
// front; otherwise kairosd's own model registry decides.
//
// Launch starts `kairosd -addr 127.0.0.1:0`, waits for the daemon's ready
// line to learn the bound port, health-checks the Hello banner (the
// announced model and type must match what was asked for), and only then
// hands the address to the actuator. Stop sends SIGTERM — kairosd drains
// in-flight queries before exiting — and reaps the process, escalating to
// SIGKILL after stopTimeout. It is the stepping stone toward SSH/cloud
// provisioning: the control plane already manages real processes over
// real sockets; only "local exec" stands in for "remote host".
func NewExecFleet(bin string, timeScale float64, models ...string) *Fleet {
	served := make(map[string]bool, len(models))
	for _, m := range models {
		served[m] = true
	}
	f := newFleet("exec", timeScale)
	f.launch = func(model, typeName string) (instance, string, error) {
		if len(served) > 0 && !served[model] {
			return nil, "", fmt.Errorf("autopilot: exec fleet does not serve model %q", model)
		}
		return spawnKairosd(bin, model, typeName, f.timeScale)
	}
	return f
}

// execProc is one spawned kairosd.
type execProc struct {
	cmd *exec.Cmd
	// waited delivers cmd.Wait exactly once (buffered; the reaper
	// goroutine never blocks).
	waited chan error
}

// stop SIGTERMs the daemon, waits for its drain-and-exit, and SIGKILLs it
// after stopTimeout.
func (p *execProc) stop() error {
	terminateProcess(p.cmd.Process) // a dead process just fails the signal; Wait below settles it
	select {
	case err := <-p.waited:
		if err != nil {
			return fmt.Errorf("kairosd pid %d exited uncleanly: %w", p.cmd.Process.Pid, err)
		}
		return nil
	case <-time.After(stopTimeout):
		p.cmd.Process.Kill()
		<-p.waited
		return fmt.Errorf("kairosd pid %d ignored SIGTERM for %v; killed", p.cmd.Process.Pid, stopTimeout)
	}
}

func (p *execProc) kill() error { return p.cmd.Process.Kill() }

func (p *execProc) reap() {
	p.cmd.Process.Kill() // harmless when already dead
	<-p.waited
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

// probeHello health-checks a freshly-launched instance: the controller's
// handshake (server.Dial: the wire version, inside
// server.HandshakeTimeout), then the announced model and type held to what
// was asked for — so a stale kairosd fails its launch, not the AddInstance
// after it. The probe acks, then closes; the instance sees a peer that
// hung up before its first query.
func probeHello(addr, model, typeName string) error {
	conn, _, hello, err := server.Dial(addr, "controller", server.HelloAck{Proto: server.ProtoSession}, 512)
	if err != nil {
		return err
	}
	conn.Close()
	if hello.Model != model || hello.TypeName != typeName {
		return fmt.Errorf("instance at %s announces %s/%s, want %s/%s",
			addr, hello.TypeName, hello.Model, typeName, model)
	}
	return nil
}

// spawnKairosd starts one kairosd serving the named model as the given
// type on an ephemeral loopback port and returns it with its bound
// address once the process passes its banner health check.
func spawnKairosd(bin, model, typeName string, timeScale float64) (*execProc, string, error) {
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-type", typeName,
		"-model", model,
		"-timescale", strconv.FormatFloat(timeScale, 'g', -1, 64),
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
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", fmt.Errorf("autopilot: starting %s: %w", bin, err)
	}
	p := &execProc{cmd: cmd, waited: make(chan error, 1)}
	go func() { p.waited <- cmd.Wait() }()

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
	fail := func(cause error) (*execProc, string, error) {
		p.reap()
		if msg := strings.TrimSpace(stderr.String()); msg != "" {
			return nil, "", fmt.Errorf("autopilot: exec %s/%s: %w (stderr: %s)", model, typeName, cause, msg)
		}
		return nil, "", fmt.Errorf("autopilot: exec %s/%s: %w", model, typeName, cause)
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
	if err := probeHello(addr, model, typeName); err != nil {
		return fail(err)
	}
	return p, addr, nil
}
