// Command kairosctl is the one Kairos tool beside the kairosd instance
// server. Without a subcommand it runs the central controller against
// running kairosd daemons and drives a Poisson query load through it (the
// real-process counterpart of the simulator experiments):
//
//	kairosctl -model RM2 -addrs 127.0.0.1:7001,127.0.0.1:7002 -rate 20 -queries 200
//	kairosctl -model RM2 -model NCF -addrs 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003
//
// The subcommands, each with its own flags (kairosctl <subcommand> -h):
//
//	kairosctl autopilot   the closed-loop control plane: plan, launch, serve, replan
//	kairosctl soak        adversarial scenarios + injected faults against a live fleet
//	kairosctl status      a running autopilot's /statusz snapshot
//	kairosctl trace       a running autopilot's flight-recorder traces
//	kairosctl bench       regenerate the paper's tables and figures, or measure a policy
//	kairosctl tracefile   generate, convert and summarize query trace files
//	kairosctl microbench  turn `go test -bench` output into BENCH_micro.json
package main

import "os"

var subcommands = map[string]func(args []string){
	"autopilot":  runAutopilot,
	"soak":       runSoak,
	"status":     runStatus,
	"trace":      runTrace,
	"bench":      runBench,
	"tracefile":  runTraceFile,
	"microbench": runMicrobench,
}

func main() {
	if len(os.Args) > 1 {
		if run, ok := subcommands[os.Args[1]]; ok {
			run(os.Args[2:])
			return
		}
	}
	runLoad(os.Args[1:])
}
