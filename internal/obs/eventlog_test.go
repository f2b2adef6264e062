package obs

import "testing"

// TestEventLogBounded: the ring retains the newest events with monotone
// sequence numbers and counts overwrites.
func TestEventLogBounded(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 10; i++ {
		seq := l.Append(Event{Kind: EventSupervisorScale, Summary: "s"})
		if seq != uint64(i+1) {
			t.Fatalf("Append #%d returned seq %d", i, seq)
		}
	}
	if l.Len() != 4 || l.Seq() != 10 || l.Dropped() != 6 {
		t.Fatalf("Len/Seq/Dropped = %d/%d/%d, want 4/10/6", l.Len(), l.Seq(), l.Dropped())
	}
	tail := l.Tail(2)
	if len(tail) != 2 || tail[0].Seq != 9 || tail[1].Seq != 10 {
		t.Fatalf("Tail(2) = %+v", tail)
	}
	since := l.Since(8)
	if len(since) != 2 || since[0].Seq != 9 {
		t.Fatalf("Since(8) = %+v", since)
	}
	if got := l.Since(100); len(got) != 0 {
		t.Fatalf("Since(100) = %+v, want empty", got)
	}
}

// TestEventLogNilSafe: instrumented components need no guards.
func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	if seq := l.Append(Event{}); seq != 0 {
		t.Fatalf("nil Append returned %d", seq)
	}
	if l.Len() != 0 || l.Seq() != 0 || l.Dropped() != 0 || l.Tail(5) != nil || l.Since(0) != nil {
		t.Fatal("nil EventLog methods not inert")
	}
}
