// Command kairosd runs one emulated inference instance server: it binds a
// TCP port, announces its instance type and model, and serves one batched
// query at a time with the calibrated latency (Sec. 6's instance-side
// inference server).
//
// The ready line ("kairosd: TYPE serving MODEL on ADDR (timescale X)") is
// a contract with the autopilot's exec actuation provider, which parses
// it to learn the bound address of a `-addr 127.0.0.1:0` daemon. On
// SIGTERM/SIGINT the daemon drains: it stops accepting connections,
// serves every fully-received in-flight query, flushes the replies, and
// only then exits — so a control plane stopping a kairosd never drops
// queries.
//
// Usage:
//
//	kairosd -addr 127.0.0.1:7001 -type g4dn.xlarge -model RM2
//	kairosd -addr 127.0.0.1:7002 -type r5n.large  -model RM2 -timescale 0.1
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kairos"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7001", "listen address (127.0.0.1:0 for an ephemeral port)")
	typeName := flag.String("type", "g4dn.xlarge", "instance type to emulate")
	modelName := flag.String("model", "RM2", "served model (see kairosctl bench -run table3)")
	timeScale := flag.Float64("timescale", 1.0, "real seconds per simulated second (0.1 = 10x faster)")
	drain := flag.Duration("drain", 10*time.Second, "max time to drain in-flight queries on SIGTERM")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			log.Printf("kairosd: pprof on http://%s/debug/pprof/", *pprofAddr)
			log.Println(http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	model, err := kairos.ModelByName(*modelName)
	if err != nil {
		log.Fatal(err)
	}
	s, err := kairos.NewInstanceServer(*typeName, model, *timeScale)
	if err != nil {
		log.Fatal(err)
	}
	// The drain handler is armed before the ready line: a SIGTERM sent
	// the moment the daemon is announced must drain it, not kill it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := s.Start(*addr); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kairosd: %s serving %s on %s (timescale %.2f)\n", *typeName, model.Name, s.Addr(), *timeScale)
	<-sig
	fmt.Println("kairosd: draining")
	if err := s.Shutdown(*drain); err != nil {
		log.Fatal(err)
	}
	fmt.Println("kairosd: shut down")
}
