package soak

import (
	"net"
	"testing"
	"time"

	"kairos/internal/autopilot"
	"kairos/internal/cloud"
	"kairos/internal/core"
	"kairos/internal/ingress"
	"kairos/internal/models"
	"kairos/internal/predictor"
	"kairos/internal/server"
	"kairos/internal/workload"
)

// ncf returns the millisecond-scale model the live-path tests use.
func ncf() models.Model { return models.MustByName("NCF") }

// kairosPolicy builds the warmed paper policy over the default pool.
func kairosPolicy(m models.Model) *core.Distributor {
	pool := cloud.DefaultPool()
	names := make([]string, len(pool))
	for i, t := range pool {
		names[i] = t.Name
	}
	return core.NewDistributor(core.DistributorOptions{
		QoS:       m.QoS,
		BaseType:  pool.Base().Name,
		Predictor: predictor.Warmed(m.Latency, names, []int{1, 250, 500, 750, 1000}),
	})
}

// startSystem brings up a full in-process serving stack with chaos
// proxies in front of its instances: fleet -> proxies -> controller ->
// autopilot with TCP ingress.
func startSystem(t *testing.T, cfg cloud.Config) System {
	t.Helper()
	m := ncf()
	pool := cloud.DefaultPool()
	chaos := &Chaos{}
	fleet := autopilot.NewFleet(1, m)
	fleet.Front = chaos.Front
	fleetPlan := core.FleetPlan{m.Name: cfg}
	addrs, err := autopilot.Deploy(fleet, pool, fleetPlan)
	if err != nil {
		fleet.Close()
		t.Fatal(err)
	}
	ctrl, err := server.NewController(m.Name, kairosPolicy(m), 1, m.Latency, addrs)
	if err != nil {
		fleet.Close()
		t.Fatal(err)
	}
	ap, err := autopilot.New(ctrl, fleetPlan, autopilot.Wiring{
		Pool:   pool,
		Models: []models.Model{m},
		Plan: func(map[string][]int, map[string]float64, float64) (core.FleetPlan, error) {
			return fleetPlan.Clone(), nil
		},
	}, autopilot.Options{
		Provider: fleet,
		Interval: 20 * time.Millisecond,
		Cooldown: time.Hour, // no replans; the run exercises the heal path
		Ingress:  &ingress.Options{TCPAddr: "127.0.0.1:0"},
	})
	if err != nil {
		ctrl.Close()
		fleet.Close()
		t.Fatal(err)
	}
	t.Cleanup(ap.Close)
	ap.Start()
	return System{AP: ap, Chaos: chaos}
}

// TestSoakRunKillInProcess is the subsystem's own acceptance run: a
// flash crowd replayed through the ingress while one of two instances is
// SIGKILLed mid-spike. Zero violations means no admitted query dropped,
// conservation held in every snapshot, and the fleet healed.
func TestSoakRunKillInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping soak run in -short mode")
	}
	sys := startSystem(t, cloud.Config{0, 0, 2, 0})
	report, err := Run(sys, Config{
		Scenario: workload.FlashCrowd(2500, 60, 180, workload.Uniform{Min: 10, Max: 60}),
		Seed:     42,
		Models:   []string{ncf().Name},
		Faults:   []FaultSpec{KillAt(0.3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Passed() {
		t.Fatalf("soak violations: %v", report.Violations)
	}
	if report.Submitted == 0 || report.Admitted+report.Rejected != report.Submitted {
		t.Fatalf("accounting: %+v", report)
	}
	if report.Failed != 0 {
		t.Fatalf("%d admitted queries failed", report.Failed)
	}
	if len(report.Faults) != 1 {
		t.Fatalf("faults = %+v", report.Faults)
	}
	ev := report.Faults[0]
	if ev.Kind != "kill" || ev.Err != "" || ev.RecoveryMS < 0 {
		t.Fatalf("kill event = %+v", ev)
	}
	if len(report.Trajectory) == 0 {
		t.Fatal("no latency trajectory recorded")
	}
	for _, p := range report.Trajectory {
		if p.Queries > 0 && (p.P50MS <= 0 || p.P99MS < p.P50MS || p.P999MS < p.P99MS) {
			t.Fatalf("malformed trajectory point %+v", p)
		}
	}
}

// TestSoakRunPartition: a hard network partition must read exactly like
// a crash — eviction, redispatch, reap of the unreachable backend, heal.
func TestSoakRunPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping soak run in -short mode")
	}
	sys := startSystem(t, cloud.Config{0, 0, 2, 0})
	report, err := Run(sys, Config{
		Scenario: workload.HeavyTail(2000, 60, 20, 1.2),
		Seed:     7,
		Models:   []string{ncf().Name},
		Faults:   []FaultSpec{{Kind: FaultPartition, At: 0.4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Passed() {
		t.Fatalf("soak violations: %v", report.Violations)
	}
	if ev := report.Faults[0]; ev.RecoveryMS < 0 || ev.Err != "" {
		t.Fatalf("partition event = %+v", ev)
	}
}

// TestSoakRunStall: a transient stall delays traffic without losing a
// byte; everything completes once it lifts, with no eviction at all.
func TestSoakRunStall(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping soak run in -short mode")
	}
	sys := startSystem(t, cloud.Config{0, 0, 2, 0})
	report, err := Run(sys, Config{
		Scenario: workload.Diurnal(2000, 30, 90, 1, workload.Uniform{Min: 10, Max: 60}),
		Seed:     19,
		Models:   []string{ncf().Name},
		Faults:   []FaultSpec{{Kind: FaultStall, At: 0.3, Duration: 300 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Passed() {
		t.Fatalf("soak violations: %v", report.Violations)
	}
	// A stall heals by lifting: no relaunch, so no recovery time.
	if ev := report.Faults[0]; ev.Err != "" || ev.RecoveryMS != -1 {
		t.Fatalf("stall event = %+v", ev)
	}
}

func TestRunValidation(t *testing.T) {
	t.Parallel()
	if _, err := Run(System{}, Config{}); err == nil {
		t.Fatal("nil autopilot must error")
	}
	sc := workload.HeavyTail(1000, 10, 20, 1.2)
	bad := []Config{
		{Models: []string{"NCF"}}, // empty scenario
		{Scenario: sc},            // no models
		{Scenario: sc, Models: []string{"NCF"}, Faults: []FaultSpec{{Kind: FaultKill, At: 1.5}}},  // At out of range
		{Scenario: sc, Models: []string{"NCF"}, Faults: []FaultSpec{{Kind: FaultStall, At: 0.5}}}, // stall without duration
		{Scenario: sc, Models: []string{"NCF"}, Faults: []FaultSpec{{Kind: "meteor", At: 0.5}}},   // unknown kind
		{Scenario: sc, Models: []string{"NCF"}, Faults: []FaultSpec{{Kind: "wedge", At: 0.5}}},    // not a fault kind: stall is the silent-instance fault
	}
	m := ncf()
	fleet := autopilot.NewFleet(1, m)
	defer fleet.Close()
	pool := cloud.DefaultPool()
	fleetPlan := core.FleetPlan{m.Name: cloud.Config{0, 0, 1, 0}}
	addrs, err := autopilot.Deploy(fleet, pool, fleetPlan)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := server.NewController(m.Name, kairosPolicy(m), 1, m.Latency, addrs)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := autopilot.New(ctrl, fleetPlan, autopilot.Wiring{
		Pool:   pool,
		Models: []models.Model{m},
		Plan: func(map[string][]int, map[string]float64, float64) (core.FleetPlan, error) {
			return fleetPlan.Clone(), nil
		},
	}, autopilot.Options{Provider: fleet})
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Close()
	chaos := &Chaos{}
	for i, cfg := range bad {
		if _, err := Run(System{AP: ap, Chaos: chaos}, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	good := Config{Scenario: sc, Models: []string{m.Name}}
	if _, err := Run(System{AP: ap}, good); err == nil {
		t.Fatal("a system without its Chaos must error")
	}
	// A valid config against an autopilot with no ingress must error too.
	if _, err := Run(System{AP: ap, Chaos: chaos}, good); err == nil {
		t.Fatal("missing ingress must error")
	}
}

// echoServer accepts one proxy-side connection at a time and echoes.
func echoServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 1024)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						if _, werr := c.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

func TestProxyDelayStallCut(t *testing.T) {
	t.Parallel()
	backend := echoServer(t)
	p, err := newProxy(backend)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()

	conn, err := net.Dial("tcp", p.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	roundTrip := func() (time.Duration, error) {
		t0 := time.Now()
		if _, err := conn.Write([]byte("ping")); err != nil {
			return 0, err
		}
		buf := make([]byte, 4)
		if _, err := conn.Read(buf); err != nil {
			return 0, err
		}
		return time.Since(t0), nil
	}

	if _, err := roundTrip(); err != nil {
		t.Fatalf("clean round trip: %v", err)
	}

	p.setDelay(50 * time.Millisecond)
	d, err := roundTrip()
	if err != nil {
		t.Fatalf("delayed round trip: %v", err)
	}
	if d < 90*time.Millisecond { // two directions, 50ms each
		t.Fatalf("delay not applied: round trip took %v", d)
	}
	p.setDelay(0)

	// Stall: the round trip blocks until the stall lifts — and no byte
	// is lost across it.
	p.setStall(true)
	lifted := make(chan struct{})
	time.AfterFunc(150*time.Millisecond, func() { p.setStall(false); close(lifted) })
	d, err = roundTrip()
	if err != nil {
		t.Fatalf("stalled round trip: %v", err)
	}
	<-lifted
	if d < 100*time.Millisecond {
		t.Fatalf("stall not applied: round trip took %v", d)
	}

	// Cut: the connection resets and new dials are refused service.
	p.cut()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := roundTrip(); err == nil {
		t.Fatal("round trip survived the cut")
	}
}

// TestChaosThroughFleet: with a Chaos as the fleet's interposer, the
// proxy's address is the instance's only address — the controller dials
// it, a preemption notice names it, Stop and Reap release it — and the
// wire controls refuse an address no proxy holds.
func TestChaosThroughFleet(t *testing.T) {
	t.Parallel()
	m := ncf()
	chaos := &Chaos{}
	fleet := autopilot.NewFleet(1, m)
	fleet.Front = chaos.Front
	defer fleet.Close()

	front, err := fleet.Launch(m.Name, cloud.R5nLarge.Name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chaos.lookup(front); err != nil {
		t.Fatalf("the fleet's address %s is not the proxy's: %v", front, err)
	}
	if addrs := fleet.Addrs(); len(addrs) != 1 || addrs[0] != front {
		t.Fatalf("fleet addrs %v, want [%s]", addrs, front)
	}
	// A query round-trips through the proxy: the controller handshakes
	// with the instance behind it.
	ctrl, err := server.NewController(m.Name, kairosPolicy(m), 1, m.Latency, []string{front})
	if err != nil {
		t.Fatalf("controller through proxy: %v", err)
	}
	if res := ctrl.SubmitWait(m.Name, 20); res.Err != nil {
		t.Fatalf("query through proxy: %v", res.Err)
	}
	ctrl.Close()

	// The notice names the address the controller knows.
	if _, err := fleet.Preempt(front, time.Hour); err != nil {
		t.Fatal(err)
	}
	if n := <-fleet.Notices(); n.Addr != front {
		t.Fatalf("notice names %s, want the proxy's %s", n.Addr, front)
	}
	if err := fleet.Stop(front); err != nil {
		t.Fatal(err)
	}
	if err := chaos.Cut(front); err == nil {
		t.Fatal("Stop left the proxy registered")
	}

	// Reap releases the proxy of a killed instance too.
	front, err = fleet.Launch(m.Name, cloud.R5nLarge.Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.Kill(front); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Reap(front); err != nil {
		t.Fatal(err)
	}
	if fleet.Size() != 0 {
		t.Fatalf("reap left %d instances", fleet.Size())
	}
	// The wire controls on an address no proxy holds are errors.
	if err := chaos.SetDelay(front, time.Millisecond); err == nil {
		t.Fatal("delay of a reaped instance must error")
	}
	if err := chaos.SetStall(front, true); err == nil {
		t.Fatal("stall of a reaped instance must error")
	}
	if err := chaos.Cut(front); err == nil {
		t.Fatal("cut of a reaped instance must error")
	}
}
