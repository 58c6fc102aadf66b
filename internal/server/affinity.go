package server

import (
	"cmp"
	"slices"
)

// Session-affine routing: the front door tags queries with a session
// hash, and the controller's dispatch loop tries to land every query of
// a session on the same instance via consistent hashing with bounded
// load (the KubeAI modelresolver shape). Affinity is a hint, never a
// correctness constraint: when the preferred instance is over the load
// bound — or gone — the query falls through to the model's distribution
// policy like any other.
const (
	// affinityVNodes is the number of ring points per instance; more
	// points smooth the key split when instances come and go.
	affinityVNodes = 64
	// affinityLoadFactor bounds how far past its fair share of the
	// backlog a preferred instance may be loaded before affinity yields:
	// bound = ceil(factor × (backlog+1) / instances), the classic c of
	// consistent hashing with bounded load (factor 1.25 ⇒ ≤25% skew).
	affinityLoadFactorNum = 5
	affinityLoadFactorDen = 4
)

// ringEntry is one virtual node: an instance at a hash point.
type ringEntry struct {
	hash uint64
	ri   *remoteInstance
}

// affinityRing is a model group's consistent-hash ring over its active
// instances, derived whole (not incrementally edited: far easier to keep
// correct across evictions, preemptions, and replans) by a sort that takes
// ~115 µs at 32 members and ~350 µs at 64. A lifecycle transition
// (membership.setState) therefore only empties it and marks it stale; the
// round's affinity pass, its one reader, rebuilds it for the first session
// query it meets, so k membership changes cost one sort and a group that
// never sees a session key none.
type affinityRing struct {
	entries []ringEntry
	stale   bool // the active set changed since entries was derived
}

// rebuild re-derives the ring from the group's live instances. The
// caller holds the group's mu.
func (r *affinityRing) rebuild(instances []*remoteInstance) {
	r.stale = false
	r.entries = r.entries[:0]
	for _, ri := range instances {
		if ri.state != stateActive {
			continue
		}
		h := fnv64(ri.addr)
		for v := uint64(0); v < affinityVNodes; v++ {
			r.entries = append(r.entries, ringEntry{splitmix64(h + v), ri})
		}
	}
	slices.SortFunc(r.entries, func(a, b ringEntry) int { return cmp.Compare(a.hash, b.hash) })
}

// pick walks the ring clockwise from the session's hash point and
// returns the first instance whose backlog is under bound; nil when the
// ring is empty or everything is saturated. The caller holds the
// group's mu.
func (r *affinityRing) pick(session uint64, bound int) *remoteInstance {
	n := len(r.entries)
	if n == 0 {
		return nil
	}
	i, _ := slices.BinarySearchFunc(r.entries, session, func(e ringEntry, s uint64) int { return cmp.Compare(e.hash, s) })
	for k := 0; k < n; k++ {
		ri := r.entries[(i+k)%n].ri
		if ri.state == stateActive && len(ri.pending) < bound {
			return ri
		}
	}
	return nil
}

// affinityBound computes the bounded-load cap for one dispatch: how many
// pending queries the preferred instance may already hold and still take
// this one. backlog is the group's total in-flight count before this
// dispatch.
func affinityBound(backlog, instances int) int {
	if instances <= 0 {
		return 0
	}
	num := affinityLoadFactorNum * (backlog + 1)
	den := affinityLoadFactorDen * instances
	return (num + den - 1) / den
}

// SessionHash maps a client session key to the ring's key space: FNV-1a
// finished with a splitmix64 avalanche so nearby keys spread across the
// ring. The zero hash is reserved for "no session", so real keys map to
// 1 instead.
func SessionHash(key []byte) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	h = splitmix64(h)
	if h == 0 {
		h = 1
	}
	return h
}

func fnv64(s string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// high-quality avalanche over 64 bits.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
