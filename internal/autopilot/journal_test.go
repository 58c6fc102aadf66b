package autopilot

import (
	"testing"
	"time"
)

// TestDecisionJournalRotation: the bounded journal keeps the newest
// entries in chronological order with monotone sequence numbers, and
// events(max) trims from the old end.
func TestDecisionJournalRotation(t *testing.T) {
	j := newJournal(4)
	if got := j.events(0); len(got) != 0 {
		t.Fatalf("fresh journal has %d entries", len(got))
	}
	for i := 0; i < 10; i++ {
		j.add(DecisionEvent{Kind: "steady"})
	}
	evs := j.events(0)
	if len(evs) != 4 {
		t.Fatalf("journal retained %d entries, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(7 + i); ev.Seq != want {
			t.Fatalf("entry %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
	if trimmed := j.events(2); len(trimmed) != 2 || trimmed[0].Seq != 9 || trimmed[1].Seq != 10 {
		t.Fatalf("events(2) = %+v", trimmed)
	}
}

// TestDecisionEventKinds maps Decision outcomes to journal kinds.
func TestDecisionEventKinds(t *testing.T) {
	a := &Autopilot{journal: newJournal(1), now: time.Now}
	cases := []struct {
		dec  Decision
		err  error
		want string
	}{
		{Decision{Checked: true, Replanned: true, DriftTriggered: true}, nil, "replan"},
		{Decision{Checked: false}, nil, "cold"},
		{Decision{Checked: true, Held: true, SLOTriggered: true}, nil, "held"},
		{Decision{Checked: true, DriftTriggered: true}, nil, "plan-unchanged"},
		{Decision{Checked: true}, nil, "steady"},
	}
	for _, c := range cases {
		a.record(c.dec.kind(c.err), c.dec.Reason, &c.dec, outcome{planMS: 0.7, actuateMS: 1.5, err: c.err})
		ev := a.Decisions()[0]
		if ev.Kind != c.want {
			t.Fatalf("decision %+v journaled as %q, want %q", c.dec, ev.Kind, c.want)
		}
		if ev.PlanMS != 0.7 {
			t.Fatalf("decision %+v journaled plan_ms %v, want 0.7", c.dec, ev.PlanMS)
		}
	}
}
