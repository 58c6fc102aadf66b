//go:build unix

package autopilot

import (
	"os"
	"os/exec"
	"syscall"
)

// detachProcessGroup puts a spawned kairosd in its own process group, so
// terminal signals (Ctrl-C) reach only the control plane and the fleet
// shuts down in the documented order instead of being broadside-SIGINT'd.
func detachProcessGroup(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
}

// terminateProcess asks a kairosd to drain and exit (SIGTERM).
func terminateProcess(p *os.Process) error {
	return p.Signal(syscall.SIGTERM)
}
