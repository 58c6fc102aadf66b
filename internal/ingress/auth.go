package ingress

import (
	"sync/atomic"
	"time"
)

// Client gating for an untrusted front door: a static bearer-token allow
// list and a per-client rate limit. The limiter is GCRA (the
// "leaky-bucket-as-meter" form of a token bucket): each client carries a
// single atomic nanosecond timestamp — its theoretical arrival time — so
// an allow() is one Load and one CAS with no locks and no allocation,
// and an idle bucket needs no refill bookkeeping.

// bootT anchors the limiter's monotonic clock; nanosecond deltas from it
// fit int64 for centuries.
var bootT = time.Now()

func nowNanos() int64 { return int64(time.Since(bootT)) }

// clientBucket is one client's limiter state.
type clientBucket struct {
	// tat is the theoretical arrival time, in nanoseconds since bootT, of
	// the next request if the client paced perfectly.
	tat atomic.Int64
}

// allow spends one token; false means the client is over its budget.
// interval is the nanosecond spacing of a perfectly paced client
// (1e9/qps); burst is how many tokens a fresh or idle bucket holds.
func (b *clientBucket) allow(interval, burst int64) bool {
	for {
		now := nowNanos()
		tat := b.tat.Load()
		t := tat
		if now > t {
			t = now
		}
		// A conforming request may arrive up to (burst-1) intervals ahead
		// of its theoretical slot; further ahead means the burst is spent.
		if t-now > (burst-1)*interval {
			return false
		}
		if b.tat.CompareAndSwap(tat, t+interval) {
			return true
		}
	}
}

// authTable is the front door's client gate: the token allow list and
// per-client buckets, both immutable after New (the hot path reads a
// prebuilt map).
type authTable struct {
	// clients maps auth token → limiter bucket; nil when no tokens are
	// configured (open front door).
	clients map[string]*clientBucket
	// anon is the shared bucket for an open front door with a rate limit.
	anon     *clientBucket
	interval int64 // 0 disables rate limiting
	burst    int64
}

// newAuthTable builds the gate; nil when neither auth nor rate limiting
// is configured, so the hot path can skip the whole stage on one nil
// check.
func newAuthTable(tokens []string, qps float64, burst int) *authTable {
	if len(tokens) == 0 && qps <= 0 {
		return nil
	}
	t := &authTable{}
	if qps > 0 {
		t.interval = int64(float64(time.Second) / qps)
		if t.interval < 1 {
			t.interval = 1
		}
		t.burst = int64(burst)
		if t.burst < 1 {
			t.burst = int64(qps)
			if t.burst < 1 {
				t.burst = 1
			}
		}
	}
	if len(tokens) > 0 {
		t.clients = make(map[string]*clientBucket, len(tokens))
		for _, tok := range tokens {
			t.clients[tok] = &clientBucket{}
		}
	} else {
		t.anon = &clientBucket{}
	}
	return t
}

// lookup resolves a presented token to its bucket. ok=false means the
// client is unauthorized. With no token list every client shares the
// anonymous bucket. The map lookup on a byte slice does not allocate
// (the compiler recognizes map[string(b)]).
func (t *authTable) lookup(token []byte) (b *clientBucket, ok bool) {
	if t.clients == nil {
		return t.anon, true
	}
	b, ok = t.clients[string(token)]
	return b, ok
}

// limited spends one token from b; true means reject with RateLimitedMsg.
// b may be nil (authorized client on a front door without rate limits).
func (t *authTable) limited(b *clientBucket) bool {
	if t.interval == 0 || b == nil {
		return false
	}
	return !b.allow(t.interval, t.burst)
}
