//go:build windows

package autopilot

import (
	"os"
	"os/exec"
)

// detachProcessGroup is a no-op on Windows: console Ctrl-C delivery is
// group-based there too, but syscall.SysProcAttr has no Setpgid field;
// CREATE_NEW_PROCESS_GROUP could be wired up if Windows fleets matter.
func detachProcessGroup(cmd *exec.Cmd) {}

// terminateProcess kills outright: Windows cannot deliver SIGTERM, and a
// 10s no-op wait before the kill would only delay every actuation. The
// actuator calls Stop only after the controller has drained the
// instance, so there are no in-flight queries to lose.
func terminateProcess(p *os.Process) error {
	return p.Kill()
}
