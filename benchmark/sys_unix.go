//go:build unix

package main

import (
	"syscall"
	"time"
)

// cpuTimes reads the process's user and system CPU time and its peak
// resident set (KB on Linux).
func cpuTimes() (userNS, sysNS, maxRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, 0
	}
	return ru.Utime.Nano(), ru.Stime.Nano(), ru.Maxrss
}

// paceSleep sleeps an open-loop sender until its next send is due. The
// Go runtime rounds a timer up to the next millisecond whenever the
// waiting thread parks in the network poller, which would make every
// send up to 1 ms late, bunch the arrivals on a 1 kHz tick and charge
// both to the system; a nanosleep wakes within ~0.1 ms. (Locking the
// sender to its thread as well was tried and is worse: every wake-up
// then hands a P from thread to thread.)
func paceSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	// EINTR only cuts the sleep short; the sender re-reads the clock.
	_ = syscall.Nanosleep(&ts, nil)
}
