package cloud

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDefaultPoolMatchesTable4(t *testing.T) {
	p := DefaultPool()
	if len(p) != 4 {
		t.Fatalf("pool size = %d, want 4", len(p))
	}
	wantPrices := map[string]float64{
		"g4dn.xlarge": 0.526,
		"c5n.2xlarge": 0.432,
		"r5n.large":   0.149,
		"t3.xlarge":   0.1664,
	}
	for name, price := range wantPrices {
		i := p.IndexOf(name)
		if i < 0 {
			t.Fatalf("missing instance type %s", name)
		}
		if p[i].PricePerHour != price {
			t.Errorf("%s price = %v, want %v", name, p[i].PricePerHour, price)
		}
	}
	if p.Base().Name != "g4dn.xlarge" {
		t.Errorf("base type = %s, want g4dn.xlarge", p.Base().Name)
	}
	if p.Base().Class != AcceleratedComputing {
		t.Errorf("base class = %v, want accelerated", p.Base().Class)
	}
}

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		AcceleratedComputing: "Accelerated Computing",
		ComputeOptimized:     "Compute Optimized CPU",
		MemoryOptimized:      "Memory Optimized CPU",
		GeneralPurpose:       "General Purpose CPU",
		Class(99):            "Class(99)",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", int(c), got, want)
		}
	}
}

func TestCostOfPaperConfigs(t *testing.T) {
	// Fig. 1 uses the 3-type pool {g4dn, c5n.2xlarge, r5n.large}.
	p := ThreeTypePool()
	cases := []struct {
		cfg  string
		want float64
	}{
		{"(4,0,0)", 4 * 0.526},
		{"(3,1,3)", 3*0.526 + 0.432 + 3*0.149},
		{"(2,0,9)", 2*0.526 + 9*0.149},
		{"(1,4,2)", 0.526 + 4*0.432 + 2*0.149},
	}
	for _, tc := range cases {
		cfg, err := ParseConfig(tc.cfg, len(p))
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Cost(cfg); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("cost%v = %v, want %v", cfg, got, tc.want)
		}
	}
	// (1,4,2) exceeds the paper's $2.5/hr budget; the others fit (Fig. 1).
	budget := 2.5
	for _, tc := range cases {
		cfg, _ := ParseConfig(tc.cfg, len(p))
		within := p.WithinBudget(cfg, budget)
		if tc.cfg == "(1,4,2)" && within {
			t.Errorf("(1,4,2) should exceed budget %v", budget)
		}
		if tc.cfg != "(1,4,2)" && !within {
			t.Errorf("%s should fit budget %v (cost %v)", tc.cfg, budget, p.Cost(cfg))
		}
	}
}

func TestHomogeneous(t *testing.T) {
	p := DefaultPool()
	c := p.Homogeneous(2.5)
	if c.Base() != 4 {
		t.Fatalf("homogeneous base count = %d, want 4 (4 x $0.526 = $2.104)", c.Base())
	}
	for i := 1; i < len(c); i++ {
		if c[i] != 0 {
			t.Fatalf("homogeneous config has auxiliary instances: %v", c)
		}
	}
	// Scale compensates the unused budget: 2.5 / 2.104 ~= 1.188 ("70% of one
	// G1" in Sec. 4 phrasing).
	scale := p.HomogeneousScale(2.5)
	if math.Abs(scale-2.5/2.104) > 1e-9 {
		t.Fatalf("scale = %v, want %v", scale, 2.5/2.104)
	}
	if scale < 1 {
		t.Fatal("scale must be >= 1")
	}
}

func TestHomogeneousScaleZeroBase(t *testing.T) {
	p := DefaultPool()
	if got := p.HomogeneousScale(0.1); got != 1 {
		t.Fatalf("scale with no affordable base = %v, want 1", got)
	}
}

func TestEnumerateRespectsBudget(t *testing.T) {
	p := DefaultPool()
	budget := 2.5
	configs := p.Enumerate(budget)
	if len(configs) == 0 {
		t.Fatal("no configurations enumerated")
	}
	// Paper: "an order of 1000-configuration search space" (Sec. 5.2).
	if len(configs) < 500 || len(configs) > 20000 {
		t.Fatalf("search space size = %d, expected order-1000", len(configs))
	}
	seen := map[string]bool{}
	for _, c := range configs {
		if !p.WithinBudget(c, budget) {
			t.Fatalf("config %v cost %v exceeds budget", c, p.Cost(c))
		}
		if c.Total() == 0 {
			t.Fatal("empty configuration enumerated")
		}
		if seen[c.Key()] {
			t.Fatalf("duplicate configuration %v", c)
		}
		seen[c.Key()] = true
	}
	// The optimal homogeneous configuration must be part of the space.
	if !seen[p.Homogeneous(budget).Key()] {
		t.Fatal("homogeneous configuration missing from search space")
	}
}

func TestEnumerateCountsClosedForm(t *testing.T) {
	// Single-type pool: budget/price + 1 configs minus the empty one.
	p := Pool{{Name: "only", Class: GeneralPurpose, PricePerHour: 0.5}}
	configs := p.Enumerate(2.0)
	if len(configs) != 4 {
		t.Fatalf("got %d configs, want 4 (1..4 instances)", len(configs))
	}
}

func TestIsSubConfigOf(t *testing.T) {
	a := Config{1, 0, 2}
	b := Config{1, 1, 2}
	c := Config{2, 0, 1}
	if !a.IsSubConfigOf(b) {
		t.Error("(1,0,2) should be a sub-config of (1,1,2)")
	}
	if b.IsSubConfigOf(a) {
		t.Error("(1,1,2) should not be a sub-config of (1,0,2)")
	}
	if a.IsSubConfigOf(a) {
		t.Error("a config is not a sub-config of itself")
	}
	if a.IsSubConfigOf(c) || c.IsSubConfigOf(a) {
		t.Error("incomparable configs must not be sub-configs")
	}
	if a.IsSubConfigOf(Config{1, 1}) {
		t.Error("different lengths must not be comparable")
	}
}

// TestSubConfigPartialOrder checks transitivity and antisymmetry of the
// sub-configuration relation on random configs.
func TestSubConfigPartialOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gen := func() Config {
		c := make(Config, 4)
		for i := range c {
			c[i] = rng.Intn(4)
		}
		return c
	}
	f := func() bool {
		a, b, c := gen(), gen(), gen()
		// Antisymmetry: both directions cannot hold (strict relation).
		if a.IsSubConfigOf(b) && b.IsSubConfigOf(a) {
			return false
		}
		// Transitivity.
		if a.IsSubConfigOf(b) && b.IsSubConfigOf(c) && !a.IsSubConfigOf(c) {
			return false
		}
		return true
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSquaredDistance(t *testing.T) {
	a := Config{3, 1, 3}
	b := Config{4, 0, 0}
	if got := a.SquaredDistance(b); got != 1+1+9 {
		t.Fatalf("distance = %v, want 11", got)
	}
	if got := a.SquaredDistance(a); got != 0 {
		t.Fatalf("self distance = %v, want 0", got)
	}
}

func TestSquaredDistancePanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Config{1, 2}.SquaredDistance(Config{1, 2, 3})
}

func TestParseConfig(t *testing.T) {
	c, err := ParseConfig("(3, 1, 3)", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(Config{3, 1, 3}) {
		t.Fatalf("parsed %v", c)
	}
	if _, err := ParseConfig("(1,2)", 3); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := ParseConfig("(1,x,3)", 3); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := ParseConfig("(1,-2,3)", 3); err == nil {
		t.Fatal("expected negative count error")
	}
}

func TestConfigStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		c := make(Config, 4)
		for i := range c {
			c[i] = rng.Intn(10)
		}
		parsed, err := ParseConfig(c.String(), 4)
		if err != nil {
			t.Fatal(err)
		}
		if !parsed.Equal(c) {
			t.Fatalf("round trip %v -> %v", c, parsed)
		}
	}
}

func TestCostPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DefaultPool().Cost(Config{1, 2})
}

func TestCloneIndependent(t *testing.T) {
	a := Config{1, 2, 3}
	b := a.Clone()
	b[0] = 9
	if a[0] != 1 {
		t.Fatal("Clone aliases the original")
	}
}
