package ingress

import (
	"fmt"
	"math"
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

// allow spends one token at time now (nanoseconds since bootT); false
// means the client is over its budget. interval is the nanosecond spacing
// of a perfectly paced client (1e9/qps); burst is how many tokens a fresh
// or idle bucket holds. A clock that stalls or steps backwards mints
// nothing: tat only ever moves forward, by one interval per admitted
// request.
func (b *clientBucket) allow(now, interval, burst int64) bool {
	for {
		tat := b.tat.Load()
		t := max(tat, now)
		// A conforming request may arrive up to (burst-1) intervals ahead
		// of its theoretical slot; further ahead means the burst is spent.
		// limiterParams bounds burst*interval, so neither this product nor
		// t+interval can overflow.
		if t-now > (burst-1)*interval {
			return false
		}
		if b.tat.CompareAndSwap(tat, t+interval) {
			return true
		}
	}
}

// maxLimiterSpan bounds burst*interval: half the int64 range, so a
// bucket's tat (at most now plus that span, now being nanoseconds since
// process start) cannot wrap.
const maxLimiterSpan = math.MaxInt64 / 2

// limiterParams derives the limiter's integer parameters from a positive
// rate and a burst depth (0 derives max(1, qps)), refusing a pair whose
// span would overflow the bucket's nanosecond arithmetic.
func limiterParams(qps float64, burst int) (interval, depth int64, err error) {
	iv := math.Max(1, math.Floor(float64(time.Second)/qps))
	d := float64(burst)
	if burst < 1 {
		d = math.Max(1, math.Floor(qps))
	}
	// Written so that NaN (from a NaN rate) fails too.
	if !(iv*d <= maxLimiterSpan) {
		return 0, 0, fmt.Errorf("ingress: rate limit %v with burst %.0f overflows the limiter's nanosecond clock", qps, d)
	}
	return int64(iv), int64(d), nil
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
		t.interval, t.burst, _ = limiterParams(qps, burst) // Options.Validate already refused an overflowing pair
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

// client is a caller's standing at the gate, resolved from its token:
// once per connection on TCP (the handshake carries it), once per request
// on HTTP (the header does).
type client struct {
	denied bool          // presented no valid token to a token-gated door
	bucket *clientBucket // set whenever the client is let in by a gate
}

// identify resolves a presented token. No gate (nil table): every client
// is anonymous and unlimited; no token list: everyone shares the
// anonymous bucket. The map lookup on a byte slice does not allocate.
func (t *authTable) identify(token []byte) client {
	switch {
	case t == nil:
		return client{}
	case t.clients == nil:
		return client{bucket: t.anon}
	}
	b, ok := t.clients[string(token)]
	return client{denied: !ok, bucket: b}
}

// limited spends one of c's tokens; true means reject with
// RateLimitedMsg. Never true without a gate or without a rate limit.
func (t *authTable) limited(c client) bool {
	return t != nil && t.interval != 0 && !c.bucket.allow(nowNanos(), t.interval, t.burst)
}
