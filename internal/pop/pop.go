// Package pop implements POP-style partitioned serving, the scaling path
// the paper sketches in Sec. 6: "inference service frameworks like Kairos
// can scale to extremely large systems by dividing the system into
// multiple sub-systems and running a Kairos instance on each sub-system"
// (citing POP [65]).
//
// Partitioned wraps k inner distributors, splits the instances into k
// balanced sub-pools (round-robin per type so each partition keeps the
// same heterogeneity mix — POP's key requirement), and hashes each query
// to a partition by its stable arrival ID (a partition without an instance
// hands its queries to the next one that has any, so a fleet smaller than
// k strands nothing). Each sub-controller then runs
// its policy over an O(n/k) matching instead of O(n), cutting the
// per-round solve cost while approximating the global solution.
package pop

import (
	"fmt"

	"kairos/internal/sim"
)

// Factory builds one inner distributor per partition.
type Factory func(partition int) sim.Distributor

// Partitioned is a sim.Distributor that delegates to per-partition inner
// policies. Like them it is driven by one controller at a time and reuses
// its per-round buffers.
type Partitioned struct {
	k     int
	inner []sim.Distributor
	// types is the instance type sequence the partition map was built
	// for, instPart the partition of each view position. The live
	// controller renumbers its view whenever an instance joins, drains or
	// dies, so the map follows the view instead of remembering indices.
	types    []string
	instPart []int
	// route sends a partition's queries to the partition that serves
	// them: itself, or the next one with an instance when it has none.
	route []int

	parts []partition
	out   []sim.Assignment
}

// partition is one sub-controller's view of a round; queryIdx and instIdx
// map its local indices back to the caller's.
type partition struct {
	queries   []sim.QueryView
	queryIdx  []int
	instances []sim.InstanceView
	instIdx   []int
}

// NewPartitioned builds a k-way partitioned distributor.
func NewPartitioned(k int, factory Factory) *Partitioned {
	if k < 1 {
		panic("pop: need at least one partition")
	}
	p := &Partitioned{k: k, inner: make([]sim.Distributor, k), route: make([]int, k), parts: make([]partition, k)}
	for i := 0; i < k; i++ {
		p.inner[i] = factory(i)
		if p.inner[i] == nil {
			panic(fmt.Sprintf("pop: factory returned nil for partition %d", i))
		}
	}
	return p
}

// Name implements sim.Distributor.
func (p *Partitioned) Name() string { return fmt.Sprintf("POP-%dx(%s)", p.k, p.inner[0].Name()) }

// Partitions returns k.
func (p *Partitioned) Partitions() int { return p.k }

// partitionInstances assigns instances to partitions round-robin per type
// so every partition sees the same heterogeneity mix, and routes around
// the partitions left without an instance. It only does work when the
// view's length or type sequence changed since the last round.
func (p *Partitioned) partitionInstances(instances []sim.InstanceView) {
	same := len(instances) == len(p.types)
	for x := 0; same && x < len(instances); x++ {
		same = instances[x].TypeName == p.types[x]
	}
	if same {
		return
	}
	p.types, p.instPart = p.types[:0], p.instPart[:0]
	counterByType := map[string]int{}
	populated := make([]bool, p.k)
	for _, in := range instances {
		c := counterByType[in.TypeName]
		counterByType[in.TypeName] = c + 1
		p.types = append(p.types, in.TypeName)
		p.instPart = append(p.instPart, c%p.k)
		populated[c%p.k] = true
	}
	for part := range p.route {
		p.route[part] = part
		for step := 0; step < p.k && !populated[p.route[part]]; step++ {
			p.route[part] = (p.route[part] + 1) % p.k
		}
	}
}

// Assign implements sim.Distributor: split views, delegate, merge. The
// result is valid until the next Assign.
func (p *Partitioned) Assign(nowMS float64, waiting []sim.QueryView, instances []sim.InstanceView) []sim.Assignment {
	if p.k == 1 {
		return p.inner[0].Assign(nowMS, waiting, instances)
	}
	if len(instances) == 0 {
		return nil
	}
	p.partitionInstances(instances)

	for i := range p.parts {
		pt := &p.parts[i]
		pt.queries, pt.queryIdx = pt.queries[:0], pt.queryIdx[:0]
		pt.instances, pt.instIdx = pt.instances[:0], pt.instIdx[:0]
	}
	for _, q := range waiting {
		part := q.ID % p.k
		if part < 0 {
			part = -part
		}
		pt := &p.parts[p.route[part]]
		local := q
		local.Index = len(pt.queries)
		pt.queries = append(pt.queries, local)
		pt.queryIdx = append(pt.queryIdx, q.Index)
	}
	for x, in := range instances {
		pt := &p.parts[p.instPart[x]]
		local := in
		local.Index = len(pt.instances)
		pt.instances = append(pt.instances, local)
		pt.instIdx = append(pt.instIdx, in.Index)
	}

	p.out = p.out[:0]
	for i := range p.parts {
		pt := &p.parts[i]
		if len(pt.queries) == 0 {
			continue
		}
		for _, a := range p.inner[i].Assign(nowMS, pt.queries, pt.instances) {
			p.out = append(p.out, sim.Assignment{
				Query:    pt.queryIdx[a.Query],
				Instance: pt.instIdx[a.Instance],
			})
		}
	}
	return p.out
}

// Observe implements sim.Observer by fanning feedback out to every inner
// policy that accepts it (latency observations are global knowledge).
func (p *Partitioned) Observe(instance string, batch int, serviceMS float64) {
	for _, in := range p.inner {
		if obs, ok := in.(sim.Observer); ok {
			obs.Observe(instance, batch, serviceMS)
		}
	}
}
