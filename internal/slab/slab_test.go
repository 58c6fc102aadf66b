package slab

import (
	"runtime"
	"testing"
)

// TestPoolAllocatesOneSlabPerMiss: records handed out without any coming
// back cost one allocation per slab, not one each, and are distinct.
func TestPoolAllocatesOneSlabPerMiss(t *testing.T) {
	type record struct{ a, b, c, d int64 }
	const n = 64 * size
	var p Pool[record]
	got := make([]*record, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range got {
		got[i] = p.Get()
	}
	runtime.ReadMemStats(&after)
	// One slab per 64 records, ~48 under -race (it drops a quarter of
	// sync.Pool's Puts), plus the pool's own queue growth.
	if allocs := after.Mallocs - before.Mallocs; allocs > n/16 {
		t.Fatalf("%d records cost %d allocations, want <= %d", n, allocs, n/16)
	}
	seen := make(map[*record]bool, n)
	for _, r := range got {
		if seen[r] || *r != (record{}) {
			t.Fatalf("record %p handed out twice or not zeroed: %+v", r, *r)
		}
		seen[r] = true
	}
}
