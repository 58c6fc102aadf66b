package sim

// FCFSAny is the naive scheme of Fig. 5: first come, first served onto any
// idle instance with no QoS awareness and no heterogeneity awareness. It is
// the engine's simplest policy and the contrast case for the quickstart
// example.
type FCFSAny struct{}

// Name implements Distributor.
func (FCFSAny) Name() string { return "FCFS" }

// Assign implements Distributor: oldest query first onto the lowest-index
// idle instance.
func (FCFSAny) Assign(_ float64, waiting []QueryView, instances []InstanceView) []Assignment {
	var out []Assignment
	for _, in := range instances {
		if len(out) < len(waiting) && in.Backlog() == 0 {
			out = append(out, Assignment{Query: waiting[len(out)].Index, Instance: in.Index})
		}
	}
	return out
}

// LeastLoaded dispatches each waiting query to the instance with the
// fewest backlogged queries (ties to the lower index). It is the
// heterogeneity-oblivious ablation baseline and, capped, the plumbing-only
// policy of the serving-path benchmarks, which isolate the controller and
// the wire from a matching policy's cost. It allocates nothing once its
// scratch has grown.
type LeastLoaded struct {
	// MaxBacklog, when positive, stops an instance from receiving work once
	// its backlog (in flight plus queued) reaches it; the rest wait.
	MaxBacklog int

	out  []Assignment
	load []int
}

// Name implements Distributor.
func (*LeastLoaded) Name() string { return "LeastLoaded" }

// Assign implements Distributor.
func (p *LeastLoaded) Assign(_ float64, waiting []QueryView, instances []InstanceView) []Assignment {
	p.out, p.load = p.out[:0], p.load[:0]
	for _, in := range instances {
		p.load = append(p.load, in.Backlog())
	}
	for _, q := range waiting {
		best := -1
		for i, l := range p.load {
			if (p.MaxBacklog <= 0 || l < p.MaxBacklog) && (best < 0 || l < p.load[best]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		p.load[best]++
		p.out = append(p.out, Assignment{Query: q.Index, Instance: instances[best].Index})
	}
	return p.out
}
