package kairos

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// stubDistributor is a registry test double.
type stubDistributor struct{ name string }

func (s stubDistributor) Name() string { return s.name }
func (s stubDistributor) Assign(float64, []QueryView, []InstanceView) []Assignment {
	return nil
}

func stubFactory(name string) PolicyFactory {
	return func(PolicyContext) (Distributor, error) { return stubDistributor{name: name}, nil }
}

func TestRegisterPolicyErrors(t *testing.T) {
	cases := []struct {
		name    string
		reg     string
		factory PolicyFactory
		wantErr string
	}{
		{name: "empty name", reg: "", factory: stubFactory("x"), wantErr: "non-empty"},
		{name: "nil factory", reg: "test-nil-factory", factory: nil, wantErr: "non-nil factory"},
		{name: "builtin collision", reg: "kairos", factory: stubFactory("x"), wantErr: "already registered"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := RegisterPolicy(tc.reg, tc.factory)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("RegisterPolicy(%q) error %v, want containing %q", tc.reg, err, tc.wantErr)
			}
		})
	}
}

// registerOnce registers a test policy, tolerating earlier registration —
// the registry is process-global and go test -count=N reruns tests in one
// process.
func registerOnce(t *testing.T, name string, factory PolicyFactory) {
	t.Helper()
	if HasPolicy(name) {
		return
	}
	if err := RegisterPolicy(name, factory); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterPolicyDuplicate(t *testing.T) {
	registerOnce(t, "test-dup", stubFactory("dup"))
	err := RegisterPolicy("test-dup", stubFactory("dup2"))
	if err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("duplicate registration error = %v", err)
	}
}

func TestPoliciesListsBuiltinsSorted(t *testing.T) {
	names := Policies()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Policies() not sorted: %v", names)
		}
	}
	var builtins []string
	for _, name := range names {
		if !strings.HasPrefix(name, "test-") {
			builtins = append(builtins, name)
		}
	}
	want := []string{"clockwork", "drs", "fcfs", "kairos", "kairos+warm", "least-loaded", "ribbon"}
	if !slices.Equal(builtins, want) {
		t.Fatalf("builtin policies = %v, want exactly %v", builtins, want)
	}
}

func TestNewPolicyLookup(t *testing.T) {
	pool := DefaultPool()
	model, _ := ModelByName("RM2")
	ctx := PolicyContext{Pool: pool, Model: model}

	if _, err := NewPolicy("test-unknown-policy", ctx); err == nil {
		t.Fatal("unknown policy must error")
	}
	if _, err := NewPolicy("kairos", PolicyContext{Model: model}); err == nil {
		t.Fatal("empty pool context must error")
	}
	if _, err := NewPolicy("kairos", PolicyContext{Pool: pool}); err == nil {
		t.Fatal("zero-QoS model context must error")
	}

	// Every builtin builds a named distributor from a valid context.
	for _, name := range Policies() {
		if strings.HasPrefix(name, "test-") {
			continue // test doubles registered by this suite
		}
		d, err := NewPolicy(name, ctx)
		if err != nil {
			t.Fatalf("NewPolicy(%q) error: %v", name, err)
		}
		if d.Name() == "" {
			t.Fatalf("NewPolicy(%q) returned unnamed distributor", name)
		}
	}
}

func TestRegisteredPolicyDrivesEngine(t *testing.T) {
	registerOnce(t, "test-engine-stub", stubFactory("STUB"))
	pool := DefaultPool()
	model, _ := ModelByName("RM2")
	e, err := New(WithPool(pool), WithModel(model), WithPolicy("test-engine-stub"))
	if err != nil {
		t.Fatal(err)
	}
	if name := e.Factory()().Name(); name != "STUB" {
		t.Fatalf("engine policy name = %q, want STUB", name)
	}
}

func TestNewPolicyParameterDefaults(t *testing.T) {
	pool := DefaultPool()
	model, _ := ModelByName("RM2")

	d, err := NewPolicy("drs", PolicyContext{Pool: pool, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("DRS(t=%d)", DefaultDRSThreshold); d.Name() != want {
		t.Fatalf("default DRS name = %q, want %q", d.Name(), want)
	}
}
