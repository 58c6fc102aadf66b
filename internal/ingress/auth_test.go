package ingress

import (
	"testing"
	"time"
)

// TestLimiterAdversarialClocks drives the GCRA bucket with clocks a
// monotonic source should never produce but a suspended VM or a buggy
// time source can: it must never mint tokens out of a stall or a
// backwards step, and must pick up exactly where it left off when the
// clock recovers.
func TestLimiterAdversarialClocks(t *testing.T) {
	const interval, burst = int64(time.Millisecond), int64(5)
	// spend tries n requests at one instant and counts the admitted ones.
	spend := func(b *clientBucket, now int64, n int) (admitted int) {
		for i := 0; i < n; i++ {
			if b.allow(now, interval, burst) {
				admitted++
			}
		}
		return admitted
	}
	const t0 = int64(time.Hour)

	t.Run("frozen clock", func(t *testing.T) {
		var b clientBucket
		if got := spend(&b, t0, 1000); got != int(burst) {
			t.Fatalf("a clock that never advances admitted %d, want the burst of %d", got, burst)
		}
	})
	t.Run("backwards after the burst", func(t *testing.T) {
		var b clientBucket
		spend(&b, t0, int(burst))
		for _, back := range []int64{1, interval, 10 * interval, t0} {
			if got := spend(&b, t0-back, 10); got != 0 {
				t.Fatalf("stepping back %dns minted %d tokens", back, got)
			}
		}
		// The backwards readings left the bucket untouched: two intervals
		// past the original instant, exactly two tokens are back.
		if got := spend(&b, t0+2*interval, 10); got != 2 {
			t.Fatalf("after recovery admitted %d, want 2", got)
		}
	})
	t.Run("backwards mid-burst", func(t *testing.T) {
		var b clientBucket
		spend(&b, t0, 2)
		// The rest of the burst is still owed, but measured from the
		// earlier reading the bucket looks further ahead of schedule:
		// rejecting is the conservative side.
		back := spend(&b, t0-10*interval, 10)
		rest := spend(&b, t0, 10)
		if back+rest != int(burst)-2 {
			t.Fatalf("admitted %d backwards + %d on return, want %d in total", back, rest, burst-2)
		}
	})
	t.Run("oscillating", func(t *testing.T) {
		var b clientBucket
		admitted := 0
		for i := 0; i < 1000; i++ {
			admitted += spend(&b, t0+int64(i%2)*interval, 1)
		}
		// The clock never got past t0+interval: the burst plus that one
		// interval's token is all there ever was.
		if admitted != int(burst)+1 {
			t.Fatalf("oscillating clock admitted %d, want %d", admitted, burst+1)
		}
	})
	t.Run("largest span the validator allows", func(t *testing.T) {
		iv, depth, err := limiterParams(1e-9, 4)
		if err != nil {
			t.Fatal(err)
		}
		var b clientBucket
		admitted := 0
		for i := 0; i < 10; i++ {
			if b.allow(1<<61, iv, depth) { // ~73 years of uptime
				admitted++
			}
		}
		if admitted != 4 || b.tat.Load() < 0 {
			t.Fatalf("admitted %d (tat %d), want 4 with no wrap", admitted, b.tat.Load())
		}
	})
}
