// Package cloud models the heterogeneous pool of rentable compute instances
// that Kairos allocates under a cost budget (Table 4 of the paper): instance
// types with hourly prices, heterogeneous configurations expressed as
// per-type instance counts, cost accounting, and enumeration of the
// budget-bounded configuration search space.
package cloud

import (
	"fmt"
	"strings"
)

// Class categorizes an instance type the way EC2 does (Table 4).
type Class int

const (
	// AcceleratedComputing is a GPU-accelerated instance class.
	AcceleratedComputing Class = iota
	// ComputeOptimized is a CPU instance class with high clock rates.
	ComputeOptimized
	// MemoryOptimized is a CPU instance class with large memory per core.
	MemoryOptimized
	// GeneralPurpose is a balanced CPU instance class.
	GeneralPurpose
)

// String returns the EC2 marketing name of the class.
func (c Class) String() string {
	switch c {
	case AcceleratedComputing:
		return "Accelerated Computing"
	case ComputeOptimized:
		return "Compute Optimized CPU"
	case MemoryOptimized:
		return "Memory Optimized CPU"
	case GeneralPurpose:
		return "General Purpose CPU"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Market is the capacity market an instance type is bought from.
type Market int

const (
	// OnDemand capacity is reserved until the renter releases it.
	OnDemand Market = iota
	// Spot capacity is discounted but revocable: the provider may reclaim
	// it after a short preemption notice.
	Spot
)

// String names the market tier.
func (m Market) String() string {
	switch m {
	case OnDemand:
		return "on-demand"
	case Spot:
		return "spot"
	default:
		return fmt.Sprintf("Market(%d)", int(m))
	}
}

// InstanceType describes one rentable instance type.
type InstanceType struct {
	// Name is the cloud provider's type name, e.g. "g4dn.xlarge". Spot
	// variants carry the ":spot" suffix (e.g. "g4dn.xlarge:spot") so the
	// two markets coexist in one pool.
	Name string
	// Class is the broad hardware category.
	Class Class
	// PricePerHour is the price in $/hr at this market tier.
	PricePerHour float64
	// Market is the capacity market tier (OnDemand unless set).
	Market Market
}

// spotSuffix marks spot-market variants in instance-type names.
const spotSuffix = ":spot"

// SpotOf derives the spot-market variant of an on-demand type: same
// hardware (so the same latency surface), the name tagged with ":spot",
// and the price discounted by the given fraction in (0,1).
func SpotOf(t InstanceType, discount float64) InstanceType {
	if t.Market != OnDemand {
		panic(fmt.Sprintf("cloud: SpotOf on non-on-demand type %s", t.Name))
	}
	if discount <= 0 || discount >= 1 {
		panic(fmt.Sprintf("cloud: spot discount %v outside (0,1)", discount))
	}
	return InstanceType{
		Name:         t.Name + spotSuffix,
		Class:        t.Class,
		PricePerHour: t.PricePerHour * (1 - discount),
		Market:       Spot,
	}
}

// OnDemandName maps an instance-type name back to its on-demand hardware
// name by stripping the spot marker; on-demand names pass through. Latency
// surfaces are keyed by hardware, so curve lookups resolve spot variants
// through this.
func OnDemandName(name string) string {
	return strings.TrimSuffix(name, spotSuffix)
}

// IsSpotName reports whether the type name carries the spot marker.
func IsSpotName(name string) bool {
	return strings.HasSuffix(name, spotSuffix)
}

// The heterogeneous pool evaluated in the paper (Table 4). g4dn.xlarge is
// the base instance type: the only type that meets QoS for every batch size
// (Sec. 7). The three CPU types are auxiliary instance types.
var (
	G4dnXlarge = InstanceType{Name: "g4dn.xlarge", Class: AcceleratedComputing, PricePerHour: 0.526}
	C5n2xlarge = InstanceType{Name: "c5n.2xlarge", Class: ComputeOptimized, PricePerHour: 0.432}
	R5nLarge   = InstanceType{Name: "r5n.large", Class: MemoryOptimized, PricePerHour: 0.149}
	T3Xlarge   = InstanceType{Name: "t3.xlarge", Class: GeneralPurpose, PricePerHour: 0.1664}
)

// Pool is an ordered set of instance types forming the configuration search
// space. By convention index 0 is the base instance type and the remaining
// entries are auxiliary types (Sec. 4).
type Pool []InstanceType

// DefaultPool returns the paper's 4-type pool (Table 4) with g4dn.xlarge as
// the base type.
func DefaultPool() Pool {
	return Pool{G4dnXlarge, C5n2xlarge, R5nLarge, T3Xlarge}
}

// ThreeTypePool returns the {G1, C1, C2} pool used in the motivation figures
// (Fig. 1-3): g4dn.xlarge, c5n.2xlarge, r5n.large.
func ThreeTypePool() Pool {
	return Pool{G4dnXlarge, C5n2xlarge, R5nLarge}
}

// WithSpotMarket returns a new pool extending p with a spot variant of
// every on-demand type, discounted by the given fraction in (0,1). The
// on-demand types keep their
// positions (the base type stays at BaseIndex); the spot variants append
// in the same order, so configurations over the extended pool embed the
// original pool as a prefix.
func (p Pool) WithSpotMarket(discount float64) Pool {
	out := make(Pool, 0, 2*len(p))
	out = append(out, p...)
	for _, t := range p {
		if t.Market == OnDemand {
			out = append(out, SpotOf(t, discount))
		}
	}
	return out
}

// HasSpot reports whether any pool type is spot-market capacity.
func (p Pool) HasSpot() bool {
	for _, t := range p {
		if t.Market == Spot {
			return true
		}
	}
	return false
}

// BaseIndex is the position of the base instance type in every Pool.
const BaseIndex = 0

// Base returns the pool's base instance type.
func (p Pool) Base() InstanceType { return p[BaseIndex] }

// IndexOf returns the position of the named type, or -1 if absent.
func (p Pool) IndexOf(name string) int {
	for i, t := range p {
		if t.Name == name {
			return i
		}
	}
	return -1
}

// Config is a heterogeneous configuration: Config[i] is the number of
// instances of Pool[i] allocated. The paper writes these as tuples such as
// (3, 1, 3).
type Config []int

// NewConfig returns a zeroed configuration sized for the pool.
func NewConfig(p Pool) Config { return make(Config, len(p)) }

// Clone returns a copy of c.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	copy(out, c)
	return out
}

// Total returns the total number of instances across all types.
func (c Config) Total() int {
	n := 0
	for _, v := range c {
		n += v
	}
	return n
}

// Base returns the number of base instances (index 0).
func (c Config) Base() int {
	if len(c) == 0 {
		return 0
	}
	return c[BaseIndex]
}

// Equal reports whether two configurations have identical counts.
func (c Config) Equal(o Config) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != o[i] {
			return false
		}
	}
	return true
}

// IsSubConfigOf reports whether c is a sub-configuration of o: o can be
// obtained from c by adding instances (Sec. 5.2, Kairos+ pruning). A
// configuration is not considered a sub-configuration of itself.
func (c Config) IsSubConfigOf(o Config) bool {
	if len(c) != len(o) {
		return false
	}
	strictly := false
	for i := range c {
		if c[i] > o[i] {
			return false
		}
		if c[i] < o[i] {
			strictly = true
		}
	}
	return strictly
}

// Key returns a canonical string form usable as a map key, e.g. "(3,1,3)".
func (c Config) Key() string { return c.String() }

// String renders the paper's tuple notation.
func (c Config) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range c {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteByte(')')
	return b.String()
}

// SquaredDistance returns the squared Euclidean distance between two
// configurations, the similarity metric of Kairos's one-shot selection
// (Sec. 5.2).
func (c Config) SquaredDistance(o Config) float64 {
	if len(c) != len(o) {
		panic("cloud: SquaredDistance on configs of different pool sizes")
	}
	d := 0.0
	for i := range c {
		diff := float64(c[i] - o[i])
		d += diff * diff
	}
	return d
}

// Cost returns the configuration's total price in $/hr under pool p.
func (p Pool) Cost(c Config) float64 {
	if len(c) != len(p) {
		panic(fmt.Sprintf("cloud: config %v does not match pool of %d types", c, len(p)))
	}
	total := 0.0
	for i, n := range c {
		if n < 0 {
			panic(fmt.Sprintf("cloud: negative instance count in %v", c))
		}
		total += float64(n) * p[i].PricePerHour
	}
	return total
}

// WithinBudget reports whether configuration c costs at most budget $/hr.
func (p Pool) WithinBudget(c Config, budget float64) bool {
	return p.Cost(c) <= budget+1e-9
}

// MaxCount returns the largest count of type i alone that fits in budget.
func (p Pool) MaxCount(i int, budget float64) int {
	if p[i].PricePerHour <= 0 {
		panic("cloud: non-positive instance price")
	}
	return int((budget + 1e-9) / p[i].PricePerHour)
}

// Homogeneous returns the optimal homogeneous configuration: the maximum
// number of base instances that fit within the budget (Sec. 8.1).
func (p Pool) Homogeneous(budget float64) Config {
	c := NewConfig(p)
	c[BaseIndex] = p.MaxCount(BaseIndex, budget)
	return c
}

// HomogeneousScale returns the factor by which a homogeneous configuration's
// measured throughput is scaled up to spend the whole budget, the
// advantage the paper grants homogeneous serving (Sec. 4 and 8.1): unused
// budget is converted into a proportional throughput credit.
func (p Pool) HomogeneousScale(budget float64) float64 {
	c := p.Homogeneous(budget)
	if c.Base() == 0 {
		return 1
	}
	return budget / p.Cost(c)
}

// EnumerateOption customizes Enumerate.
type EnumerateOption func(*enumerateOptions)

type enumerateOptions struct {
	minBase    int
	minTotal   int
	requireAny bool
}

// WithMinBase requires at least n base instances in every enumerated
// configuration. Kairos itself enumerates the full space (a zero-base
// configuration simply has throughput upper bound 0), but searches may
// restrict to serviceable configurations.
func WithMinBase(n int) EnumerateOption {
	return func(o *enumerateOptions) { o.minBase = n }
}

// WithMinTotal requires at least n instances overall, excluding the empty
// configuration by default behaviour of n=1.
func WithMinTotal(n int) EnumerateOption {
	return func(o *enumerateOptions) { o.minTotal = n }
}

// Enumerate lists every configuration whose cost is within budget, in
// lexicographic order. The empty configuration is excluded. The paper's
// default setting ($2.5/hr over Table 4) yields a search space on the order
// of 1000 configurations (Sec. 5.2).
func (p Pool) Enumerate(budget float64, opts ...EnumerateOption) []Config {
	o := enumerateOptions{minTotal: 1}
	for _, opt := range opts {
		opt(&o)
	}
	var out []Config
	cur := NewConfig(p)
	var rec func(i int, remaining float64)
	rec = func(i int, remaining float64) {
		if i == len(p) {
			if cur.Total() >= o.minTotal && cur.Base() >= o.minBase {
				out = append(out, cur.Clone())
			}
			return
		}
		maxN := int((remaining + 1e-9) / p[i].PricePerHour)
		for n := 0; n <= maxN; n++ {
			cur[i] = n
			rec(i+1, remaining-float64(n)*p[i].PricePerHour)
		}
		cur[i] = 0
	}
	rec(0, budget)
	return out
}

// ParseConfig parses the tuple notation "(a,b,c)" (whitespace tolerated)
// into a Config for a pool of the given size.
func ParseConfig(s string, poolSize int) (Config, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "(")
	s = strings.TrimSuffix(s, ")")
	parts := strings.Split(s, ",")
	if len(parts) != poolSize {
		return nil, fmt.Errorf("cloud: config %q has %d counts, pool has %d types", s, len(parts), poolSize)
	}
	c := make(Config, poolSize)
	for i, part := range parts {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil {
			return nil, fmt.Errorf("cloud: bad count %q in config %q", part, s)
		}
		if n < 0 {
			return nil, fmt.Errorf("cloud: negative count in config %q", s)
		}
		c[i] = n
	}
	return c, nil
}
