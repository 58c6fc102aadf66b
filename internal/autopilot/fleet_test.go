package autopilot

import (
	"errors"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"kairos/internal/cloud"
)

// buildKairosd builds cmd/kairosd into the test's temp dir, as the root
// package's exec end-to-end tests do.
func buildKairosd(t *testing.T) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH; cannot build kairosd")
	}
	bin := filepath.Join(t.TempDir(), "kairosd")
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	if out, err := exec.Command(goBin, "build", "-o", bin, "kairos/cmd/kairosd").CombinedOutput(); err != nil {
		t.Fatalf("building kairosd: %v\n%s", err, out)
	}
	return bin
}

// released wraps an instance to count how often it was let go.
type released struct {
	instance
	n *atomic.Int32
}

func (r released) stop() error { r.n.Add(1); return r.instance.stop() }
func (r released) reap()       { r.n.Add(1); r.instance.reap() }

// TestProviderContract holds both launchers to the one contract the
// Fleet implements: a launch is tracked in Addrs, Size and Counts; a kill
// stays tracked until its reap; unknown addresses are errors except to
// Reap; Close stops everything and refuses later launches. Every
// instance is stopped or reaped exactly once.
func TestProviderContract(t *testing.T) {
	t.Parallel()
	m := ncf()
	typ := cloud.R5nLarge.Name
	for _, tc := range []struct {
		name  string
		fleet func(t *testing.T) *Fleet
	}{
		{"in-process", func(*testing.T) *Fleet { return NewFleet(1, m) }},
		{"exec", func(t *testing.T) *Fleet {
			if testing.Short() {
				t.Skip("skipping the kairosd launcher in -short mode")
			}
			return NewExecFleet(buildKairosd(t), 1, m.Name)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			f := tc.fleet(t)
			defer f.Close()
			var counts []*atomic.Int32
			launch := f.launch
			f.launch = func(model, typeName string) (instance, string, error) {
				inst, addr, err := launch(model, typeName)
				if err != nil {
					return nil, "", err
				}
				counts = append(counts, new(atomic.Int32))
				return released{inst, counts[len(counts)-1]}, addr, nil
			}
			addrs := func(want ...string) {
				t.Helper()
				got := f.Addrs()
				sort.Strings(got)
				sort.Strings(want)
				if len(got) != len(want) || f.Size() != len(want) {
					t.Fatalf("addrs %v, size %d; want %v", got, f.Size(), want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("addrs %v, want %v", got, want)
					}
				}
			}

			if _, err := f.Launch("MT-WND", typ); err == nil {
				t.Fatal("a model the fleet does not serve must not launch")
			}
			const unknown = "127.0.0.1:1"
			if err := f.Reap(unknown); err != nil {
				t.Fatalf("reap of an unknown address: %v", err)
			}
			if err := f.Stop(unknown); err == nil {
				t.Fatal("stop of an unknown address must error")
			}
			if err := f.Kill(unknown); err == nil {
				t.Fatal("kill of an unknown address must error")
			}
			if _, err := f.Preempt(unknown, time.Second); err == nil {
				t.Fatal("preempt of an unknown address must error")
			}
			addrs()

			a, err := f.Launch(m.Name, typ)
			if err != nil {
				t.Fatal(err)
			}
			b, err := f.Launch(m.Name, typ)
			if err != nil {
				t.Fatal(err)
			}
			addrs(a, b)
			if n := f.Counts()[m.Name][typ]; n != 2 {
				t.Fatalf("counts %v", f.Counts())
			}

			if err := f.Kill(a); err != nil {
				t.Fatal(err)
			}
			addrs(a, b) // dead, but tracked until the reap
			if err := f.Reap(a); err != nil {
				t.Fatal(err)
			}
			addrs(b)

			c, err := f.Launch(m.Name, typ)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Stop(c); err != nil {
				t.Fatal(err)
			}
			addrs(b)
			if err := f.Stop(c); err == nil {
				t.Fatal("double stop must error")
			}

			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			addrs()
			for i, n := range counts {
				if n.Load() != 1 {
					t.Fatalf("instance %d was stopped or reaped %d times, want once", i, n.Load())
				}
			}
			if _, err := f.Launch(m.Name, typ); !errors.Is(err, errClosed) {
				t.Fatalf("Launch after Close = %v, want errClosed", err)
			}
			addrs()
		})
	}
}

// fakeInstance records its death and nothing else.
type fakeInstance struct{ killed atomic.Bool }

func (i *fakeInstance) stop() error { return nil }
func (i *fakeInstance) kill() error { i.killed.Store(true); return nil }
func (i *fakeInstance) reap()       {}

// TestPreemptDeadlineKillsTheNoticedInstance: the deadline kill belongs
// to the instance the notice named. Once that one has drained and
// stopped, a later launch that binds the same address must survive the
// deadline; a deadline on an instance still running does fire.
func TestPreemptDeadlineKillsTheNoticedInstance(t *testing.T) {
	t.Parallel()
	var launched []*fakeInstance
	f := newFleet("fake", 1)
	f.launch = func(string, string) (instance, string, error) {
		inst := &fakeInstance{}
		launched = append(launched, inst)
		return inst, "127.0.0.1:7000", nil // every launch gets the same port
	}
	first, err := f.Launch("NCF", cloud.R5nLarge.Name)
	if err != nil {
		t.Fatal(err)
	}
	deadline, err := f.Preempt(first, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Stop(first); err != nil { // the drain won the race
		t.Fatal(err)
	}
	second, err := f.Launch("NCF", cloud.R5nLarge.Name)
	if err != nil || second != first {
		t.Fatalf("relaunch got %q, %v; want the reused %s", second, err, first)
	}
	time.Sleep(time.Until(deadline) + 100*time.Millisecond)
	if launched[1].killed.Load() {
		t.Fatal("the first instance's deadline killed the instance that reused its address")
	}

	if _, err := f.Preempt(second, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for wait := time.Now().Add(5 * time.Second); !launched[1].killed.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(wait) {
			t.Fatal("the deadline never killed the noticed instance")
		}
	}
}
