package assignment

import (
	"math/rand"
	"testing"
)

// The workspace solver is the matching distributor's inner loop; these
// benchmarks feed the CI perf-tracking job (BENCH_micro.json), which
// holds them at zero allocations. randomMatrix comes from
// assignment_test.go.

func benchWorkspace(b *testing.B, r, c int) {
	m := randomMatrix(rand.New(rand.NewSource(42)), r, c, 100)
	var w Workspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Solve(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJV16(b *testing.B) { benchWorkspace(b, 16, 16) }
func BenchmarkJV64(b *testing.B) { benchWorkspace(b, 64, 64) }

// The distributor's deep-queue orientation: instances x surviving queries.
func BenchmarkJVRect8x32(b *testing.B) { benchWorkspace(b, 8, 32) }
