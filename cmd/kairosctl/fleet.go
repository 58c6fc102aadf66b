package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"

	"kairos"
)

// fleetSpec is what the fleet/door flags resolve to: the autopilot-managed
// deployment the autopilot and soak subcommands both launch.
type fleetSpec struct {
	models    []string
	budget    float64
	timeScale float64
	seed      int64
	provider  string // "inprocess" or "exec"
	kairosd   string // the resolved binary under -provider exec

	// engine holds the pool (with the spot tier under -spot-discount), the
	// served models, the budget and the seed; callers append their policy
	// and planning sample.
	engine []kairos.Option
	// autopilot carries OnDemandFloor and the door; the caller adds its
	// loop tuning and a Provider per launch (newProvider).
	autopilot kairos.AutopilotOptions
}

// fleetFlags declares the fleet and door flags on fs — the one place they
// exist — and returns the function that checks them once fs is parsed.
// door seeds the door's defaults and receives its flags; a subcommand that
// lets the user place the door declares the address flags on it itself.
// The check is pure: it spawns nothing, so every error it returns arrives
// before a kairosd could be orphaned. needDoor says the caller generates no
// load of its own, so a deployment without a door would serve nobody.
func fleetFlags(fs *flag.FlagSet, door *kairos.IngressOptions) func(needDoor bool) (*fleetSpec, error) {
	f := &fleetSpec{}
	fs.Func("model", "served model (repeatable; models share the budget; default NCF)", func(v string) error {
		f.models = append(f.models, v)
		return nil
	})
	fs.Float64Var(&f.budget, "budget", 0.8, "shared cost budget in $/hr")
	fs.Float64Var(&f.timeScale, "timescale", 1.0, "real seconds per model second")
	fs.Int64Var(&f.seed, "seed", 42, "random seed; every run is deterministic from it")
	fs.StringVar(&f.provider, "provider", "inprocess", "actuation provider: inprocess (loopback servers) or exec (real kairosd processes)")
	fs.StringVar(&f.kairosd, "kairosd", "", "kairosd binary for -provider exec (default: next to this binary, then PATH)")
	spotDiscount := fs.Float64("spot-discount", 0, "add a spot-market tier: every type gains a spot variant at (1-discount) x price that can be revoked on notice (0 = on-demand only)")
	fs.Float64Var(&f.autopilot.OnDemandFloor, "on-demand-floor", 0, "fraction of each model's observed arrivals that must survive on on-demand capacity alone if every spot instance is revoked at once (0 = no floor)")
	fs.IntVar(&door.MaxQueue, "ingress-queue", door.MaxQueue, "per-model bound on admitted-but-unfinished ingress queries (0 = default 1024)")
	fs.Float64Var(&door.RateLimit, "rate-limit", 0, "per-client ingress rate limit in queries/second (0 = unlimited)")
	fs.IntVar(&door.RateBurst, "rate-burst", 0, "ingress rate-limit burst depth (0 = max(1, -rate-limit))")
	fs.Func("auth-token", "static ingress bearer token (repeatable; any set makes auth mandatory)", func(v string) error {
		door.AuthTokens = append(door.AuthTokens, v)
		return nil
	})

	return func(needDoor bool) (*fleetSpec, error) {
		if len(f.models) == 0 {
			f.models = []string{"NCF"}
		}
		pool := kairos.DefaultPool()
		switch {
		case *spotDiscount >= 1 || *spotDiscount < 0:
			return nil, fmt.Errorf("-spot-discount %v outside [0,1)", *spotDiscount)
		case *spotDiscount > 0:
			pool = pool.WithSpotMarket(*spotDiscount)
		case f.autopilot.OnDemandFloor > 0:
			return nil, fmt.Errorf("-on-demand-floor needs a spot market (-spot-discount)")
		}
		switch f.provider {
		case "inprocess":
			f.kairosd = ""
		case "exec":
			bin, err := findKairosd(f.kairosd)
			if err != nil {
				return nil, err
			}
			f.kairosd = bin
		default:
			return nil, fmt.Errorf("unknown provider %q (want inprocess or exec)", f.provider)
		}
		// Any door flag asks for the front door, so a door setting without
		// an address is refused rather than silently dropped.
		if !reflect.ValueOf(*door).IsZero() {
			if err := door.Validate(); err != nil {
				return nil, err
			}
			f.autopilot.Ingress = door
		} else if needDoor {
			return nil, fmt.Errorf("-queries 0 needs an ingress (-ingress and/or -ingress-tcp)")
		}
		f.engine = []kairos.Option{
			kairos.WithPool(pool),
			kairos.WithModels(f.models...),
			kairos.WithBudget(f.budget),
			kairos.WithSeed(f.seed),
		}
		return f, nil
	}
}

// newProvider builds a fresh actuation provider for one launch of the
// fleet serving the engine's models; logf receives the exec provider's
// process lifecycle lines.
func (f *fleetSpec) newProvider(served []kairos.Model, logf func(string, ...any)) kairos.Provider {
	if f.kairosd == "" {
		return kairos.NewFleet(f.timeScale, served...)
	}
	ef := kairos.NewExecFleet(f.kairosd, f.timeScale, f.models...)
	ef.Logf = logf
	return ef
}

// findKairosd resolves the kairosd binary for -provider exec: the -kairosd
// flag, a kairosd next to this executable, or PATH.
func findKairosd(flagValue string) (string, error) {
	if flagValue != "" {
		return flagValue, nil
	}
	if self, err := os.Executable(); err == nil {
		sibling := filepath.Join(filepath.Dir(self), "kairosd")
		if _, err := os.Stat(sibling); err == nil {
			return sibling, nil
		}
	}
	if path, err := exec.LookPath("kairosd"); err == nil {
		return path, nil
	}
	return "", fmt.Errorf("no kairosd binary found: pass -kairosd, place it next to kairosctl, or add it to PATH")
}
