//go:build !unix

package main

import "time"

// Without getrusage the CPU metrics read 0; the benchmark's numbers are
// taken on Linux.
func cpuTimes() (userNS, sysNS, maxRSSKB int64) { return 0, 0, 0 }

func paceSleep(d time.Duration) { time.Sleep(d) }
