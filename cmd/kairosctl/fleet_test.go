package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"kairos"
)

// TestFleetFlags: every misconfiguration of the shared fleet/door flags is
// an error from the pure flags->options function — that is, before
// anything could be spawned — and a good flag set resolves to engine
// options and an AutopilotOptions that build.
func TestFleetFlags(t *testing.T) {
	resolve := func(door kairos.IngressOptions, needDoor bool, args ...string) (*fleetSpec, error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.StringVar(&door.HTTPAddr, "ingress", "", "")
		check := fleetFlags(fs, &door)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return check(needDoor)
	}
	soakDoor := kairos.IngressOptions{TCPAddr: "127.0.0.1:0", MaxQueue: 8192}
	for _, tc := range []struct {
		name     string
		door     kairos.IngressOptions
		needDoor bool
		args     []string
		wantErr  string
	}{
		{name: "floor without a spot market", args: []string{"-on-demand-floor", "0.5"}, wantErr: "needs a spot market"},
		{name: "spot discount 1", args: []string{"-spot-discount", "1"}, wantErr: "outside [0,1)"},
		{name: "unknown provider", args: []string{"-provider", "ssh"}, wantErr: "unknown provider"},
		{name: "door flag without a door", args: []string{"-rate-limit", "5"}, wantErr: "ingress:"},
		{name: "bad door", args: []string{"-ingress", "127.0.0.1:0", "-ingress-queue", "-1"}, wantErr: "ingress:"},
		{name: "-queries 0 without an ingress", needDoor: true, wantErr: "needs an ingress"},
		{name: "soak door, bad burst", door: soakDoor, args: []string{"-rate-burst", "-3"}, wantErr: "ingress:"},
	} {
		if _, err := resolve(tc.door, tc.needDoor, tc.args...); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}

	fl, err := resolve(soakDoor, false, "-model", "NCF", "-model", "MT-WND", "-budget", "1.2",
		"-spot-discount", "0.7", "-on-demand-floor", "0.5", "-auth-token", "s3cr3t", "-kairosd", "/nonexistent/kairosd")
	if err != nil {
		t.Fatal(err)
	}
	if fl.kairosd != "" {
		t.Fatalf("in-process provider kept a kairosd path %q", fl.kairosd)
	}
	e, err := kairos.New(fl.engine...)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Models()) != 2 || e.Budget() != 1.2 || !e.Pool().HasSpot() {
		t.Fatalf("engine = %v models, budget %v, spot %v", len(e.Models()), e.Budget(), e.Pool().HasSpot())
	}
	door := fl.autopilot.Ingress
	if fl.autopilot.OnDemandFloor != 0.5 || door == nil || door.MaxQueue != 8192 || len(door.AuthTokens) != 1 {
		t.Fatalf("autopilot options = %+v (door %+v)", fl.autopilot, door)
	}
	// The -kairosd path above does not exist, so only the in-process
	// launcher can bring an instance up.
	p := fl.newProvider(e.Models(), nil)
	defer p.Close()
	if _, err := p.Launch("NCF", e.Pool()[0].Name); err != nil {
		t.Fatalf("-provider inprocess must build the in-process fleet: %v", err)
	}
	// No door flag at all: no door, and nothing to object to.
	if fl, err = resolve(kairos.IngressOptions{}, false); err != nil || fl.autopilot.Ingress != nil {
		t.Fatalf("no door flags: err=%v door=%v", err, fl.autopilot.Ingress)
	}
}
