package soak

import (
	"strings"
	"testing"

	"kairos/internal/server"
)

// snap builds a controller snapshot with one ingress model section.
func snap(submitted, completed, failed int64, waiting int, ing *server.IngressStats) server.Stats {
	st := server.Stats{
		Submitted: submitted,
		Completed: completed,
		Failed:    failed,
		Waiting:   waiting,
	}
	if ing != nil {
		st.Ingress = map[string]server.IngressStats{"NCF": *ing}
	}
	return st
}

func TestCheckerTable(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name         string
		stream       []server.Stats
		final        server.Stats
		faultPending bool
		want         []string // substrings that must appear, in any order
	}{
		{
			name: "clean stream",
			stream: []server.Stats{
				snap(10, 4, 0, 6, &server.IngressStats{Submitted: 10, Completed: 4, Queue: 6}),
				snap(20, 15, 0, 5, &server.IngressStats{Submitted: 20, Completed: 15, Queue: 5}),
			},
			final: snap(20, 20, 0, 0, &server.IngressStats{Submitted: 20, Completed: 20}),
		},
		{
			name: "clean stream with backpressure",
			// Rejections are not drops: the ingress NACKed them before
			// admission, so they never enter the conservation law.
			stream: []server.Stats{
				snap(8, 3, 0, 5, &server.IngressStats{Submitted: 8, Rejected: 4, Completed: 3, Queue: 5}),
			},
			final: snap(8, 8, 0, 0, &server.IngressStats{Submitted: 8, Rejected: 4, Completed: 8}),
		},
		{
			name: "dropped admitted query",
			stream: []server.Stats{
				snap(10, 5, 0, 5, &server.IngressStats{Submitted: 10, Completed: 5, Queue: 5}),
			},
			final: snap(10, 9, 0, 0, &server.IngressStats{Submitted: 10, Completed: 9}),
			want:  []string{"dropped: 1 admitted queries never delivered", "dropped[NCF]: ingress submitted 10 but completed 9"},
		},
		{
			name: "admitted query failed",
			stream: []server.Stats{
				snap(10, 5, 0, 5, nil),
			},
			final: snap(10, 9, 1, 0, &server.IngressStats{Submitted: 10, Completed: 9, Failed: 1}),
			want:  []string{"dropped: 1 admitted queries failed", "dropped[NCF]: 1 ingress-admitted queries failed"},
		},
		{
			name: "conservation violated mid-stream",
			// completed+failed briefly exceeds submitted: a phantom
			// delivery. The final snapshot looks clean — only the
			// streaming checker can catch it.
			stream: []server.Stats{
				snap(10, 9, 2, 0, nil),
			},
			final: snap(12, 12, 0, 0, nil),
			want:  []string{"conservation: completed 9 + failed 2 > submitted 10"},
		},
		{
			name: "counter regression",
			stream: []server.Stats{
				snap(10, 8, 0, 2, nil),
				snap(9, 8, 0, 1, nil),
			},
			final: snap(10, 10, 0, 0, nil),
			want:  []string{"monotonicity: submitted went 10 -> 9"},
		},
		{
			name: "ingress counter regression",
			stream: []server.Stats{
				snap(10, 8, 0, 2, &server.IngressStats{Submitted: 10, Completed: 8, Queue: 2}),
				snap(10, 9, 0, 1, &server.IngressStats{Submitted: 10, Completed: 7, Queue: 1}),
			},
			final: snap(10, 10, 0, 0, &server.IngressStats{Submitted: 10, Completed: 10}),
			want:  []string{"monotonicity[NCF]"},
		},
		{
			name: "non-convergence after fault",
			stream: []server.Stats{
				snap(10, 10, 0, 0, nil),
			},
			final:        snap(10, 10, 0, 0, nil),
			faultPending: true,
			want:         []string{"convergence: fleet did not re-converge"},
		},
		{
			name: "stuck queue at quiesce",
			stream: []server.Stats{
				snap(10, 6, 0, 4, &server.IngressStats{Submitted: 10, Completed: 6, Queue: 4}),
			},
			final: snap(10, 8, 0, 2, &server.IngressStats{Submitted: 10, Completed: 8, Queue: 2}),
			want: []string{
				"quiesce: 2 queries still waiting",
				"quiesce[NCF]: ingress queue still holds 2",
				"dropped: 2 admitted queries never delivered",
			},
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var c Checker
			for _, st := range tc.stream {
				c.Observe(st)
			}
			got := c.Finalize(tc.final, tc.faultPending)
			if len(tc.want) == 0 {
				if len(got) != 0 {
					t.Fatalf("clean run reported violations: %v", got)
				}
				return
			}
			joined := strings.Join(got, "\n")
			for _, want := range tc.want {
				if !strings.Contains(joined, want) {
					t.Errorf("missing violation %q in:\n%s", want, joined)
				}
			}
		})
	}
}

func TestCheckerViolationsAccumulate(t *testing.T) {
	t.Parallel()
	var c Checker
	c.Observe(snap(10, 9, 2, 0, nil)) // conservation
	c.Observe(snap(5, 9, 2, 0, nil))  // regression + conservation again
	if n := len(c.Violations()); n < 3 {
		t.Fatalf("expected accumulated violations, got %d: %v", n, c.Violations())
	}
	// Violations returns a copy.
	v := c.Violations()
	v[0] = "mutated"
	if c.Violations()[0] == "mutated" {
		t.Fatal("Violations exposed internal state")
	}
}

func TestCheckerNamesOutstandingQueries(t *testing.T) {
	t.Parallel()
	var c Checker
	c.NameOutstanding([]server.OutstandingQuery{
		{Model: "NCF", ID: 42, Batch: 100, Stage: "queued", AgeMS: 350, Traced: true},
		{Model: "DRN", ID: 7, Batch: 5, Stage: "dispatched", Instance: "g4dn.xlarge", AgeMS: 120},
	})
	got := strings.Join(c.Violations(), "\n")
	for _, want := range []string{
		"stuck[NCF]: query 42 (batch 100) undelivered after 350ms, last stage queued; traced, see /tracez",
		"stuck[DRN]: query 7 (batch 5) undelivered after 120ms, last stage dispatched to g4dn.xlarge",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing violation %q in:\n%s", want, got)
		}
	}
}

// TestTrajectoryUsesNearestRank: a 50-completion bucket reports its
// largest latency as p99 — the tail the soak exists to watch — by the same
// rank rule as metrics.Percentile.
func TestTrajectoryUsesNearestRank(t *testing.T) {
	r := newRecorder(1000)
	for i := 50; i >= 1; i-- {
		r.observe(10, float64(i))
	}
	pts := r.trajectory()
	if len(pts) != 1 || pts[0].Queries != 50 {
		t.Fatalf("trajectory = %+v", pts)
	}
	if p := pts[0]; p.P50MS != 25 || p.P99MS != 50 || p.P999MS != 50 {
		t.Fatalf("p50/p99/p999 = %v/%v/%v, want 25/50/50", p.P50MS, p.P99MS, p.P999MS)
	}
}
