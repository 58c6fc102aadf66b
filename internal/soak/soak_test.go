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

// startSystem brings up a full in-process serving stack behind a chaos
// wrapper: fleet -> proxies -> controller -> autopilot with TCP ingress.
func startSystem(t *testing.T, cfg cloud.Config) System {
	t.Helper()
	m := ncf()
	pool := cloud.DefaultPool()
	chaos := WrapChaos(autopilot.NewFleet(1, m))
	fleetPlan := core.FleetPlan{m.Name: cfg}
	addrs, err := autopilot.Deploy(chaos, pool, fleetPlan)
	if err != nil {
		chaos.Close()
		t.Fatal(err)
	}
	ctrl, err := server.NewController(m.Name, kairosPolicy(m), 1, m.Latency, addrs)
	if err != nil {
		chaos.Close()
		t.Fatal(err)
	}
	ap, err := autopilot.New(ctrl, fleetPlan, autopilot.Wiring{
		Pool:   pool,
		Models: []models.Model{m},
		Plan: func(map[string][]int, map[string]float64, float64) (core.FleetPlan, error) {
			return fleetPlan.Clone(), nil
		},
	}, autopilot.Options{
		Provider: chaos,
		Interval: 20 * time.Millisecond,
		Cooldown: time.Hour, // no replans; the run exercises the heal path
		Ingress:  &ingress.Options{TCPAddr: "127.0.0.1:0"},
	})
	if err != nil {
		ctrl.Close()
		chaos.Close()
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
		{Scenario: sc, Models: []string{"NCF"}, Faults: []FaultSpec{{Kind: FaultKill, At: 1.5}}},                         // At out of range
		{Scenario: sc, Models: []string{"NCF"}, Faults: []FaultSpec{{Kind: FaultWedge, At: 0.5}}},                        // wedge without duration
		{Scenario: sc, Models: []string{"NCF"}, Faults: []FaultSpec{{Kind: "meteor", At: 0.5}}},                          // unknown kind
		{Scenario: sc, Models: []string{"NCF"}, Faults: []FaultSpec{{Kind: FaultStall, At: 0.5, Duration: time.Second}}}, // stall without chaos
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
	for i, cfg := range bad {
		if _, err := Run(System{AP: ap}, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// A valid config against an autopilot with no ingress must error too.
	if _, err := Run(System{AP: ap}, Config{Scenario: sc, Models: []string{m.Name}}); err == nil {
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

func TestChaosProviderLifecycle(t *testing.T) {
	t.Parallel()
	m := ncf()
	inner := autopilot.NewFleet(1, m)
	chaos := WrapChaos(inner)
	defer chaos.Close()

	if ts := chaos.TimeScale(); ts != 1 {
		t.Fatalf("time scale %v", ts)
	}
	front, err := chaos.Launch(m.Name, cloud.R5nLarge.Name)
	if err != nil {
		t.Fatal(err)
	}
	// The controller-facing address is the proxy, not the instance.
	backends := inner.Addrs()
	if len(backends) != 1 || backends[0] == front {
		t.Fatalf("front %s, backends %v", front, backends)
	}
	if addrs := chaos.Addrs(); len(addrs) != 1 || addrs[0] != front {
		t.Fatalf("chaos addrs %v", addrs)
	}
	// The wire works end to end through the proxy: a controller can
	// handshake with the instance behind it.
	ctrl, err := server.NewController(m.Name, kairosPolicy(m), 1, m.Latency, []string{front})
	if err != nil {
		t.Fatalf("controller through proxy: %v", err)
	}
	res := ctrl.SubmitWait(m.Name, 20)
	if res.Err != nil {
		t.Fatalf("query through proxy: %v", res.Err)
	}
	ctrl.Close()

	if err := chaos.Stop(front); err != nil {
		t.Fatal(err)
	}
	if inner.Size() != 0 || len(chaos.Addrs()) != 0 {
		t.Fatalf("stop leaked: inner=%d fronts=%v", inner.Size(), chaos.Addrs())
	}
	// Reap of an unknown address is not an error (Reaper contract).
	if err := chaos.Reap(front); err != nil {
		t.Fatal(err)
	}
	// Chaos controls on unknown addresses are errors.
	if err := chaos.Cut(front); err == nil {
		t.Fatal("cut of unknown address must error")
	}
}
