package provision

import (
	"testing"
	"time"

	"stacksync/internal/obs"
	"stacksync/internal/omq"
)

// TestCombinedEmitsDecisionEvents: every Desired-side decision lands in the
// flight recorder, including reactive checks that endorse the standing target
// (trigger "none").
func TestCombinedEmitsDecisionEvents(t *testing.T) {
	sla := DefaultSLA()
	pred := NewPredictive(sla, 0.95, 0)
	start := time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC)
	// One week of flat 40 req/s history so the predictor has every slot.
	rates := make([]float64, 7*24*4)
	for i := range rates {
		rates[i] = 40
	}
	pred.LoadHistory(start, rates)

	c := NewCombined(sla, pred)
	l := obs.NewEventLog(64)
	c.SetEventLog(l)

	now := start.Add(7 * 24 * time.Hour)
	c.Desired(now, omq.ObjectInfo{ArrivalRate: 40, Instances: 1}) // predictive baseline
	now = now.Add(ReactiveInterval)
	c.Desired(now, omq.ObjectInfo{ArrivalRate: 40, Instances: 3}) // reactive check, no divergence

	events := l.Tail(0)
	var triggers []string
	for _, e := range events {
		if e.Kind != obs.EventProvisionDecision {
			t.Fatalf("unexpected event kind %s", e.Kind)
		}
		triggers = append(triggers, e.Fields["trigger"])
	}
	if len(triggers) != 2 || triggers[0] != "predictive" || triggers[1] != "none" {
		t.Fatalf("event triggers = %v, want [predictive none]", triggers)
	}
	if got := decisionTriggers(l); len(got) != 1 || got[0] != "predictive" {
		t.Fatalf("decisions = %v, want single predictive entry", got)
	}

	// The predictive event carries the decision's inputs field by field.
	f := events[0].Fields
	if f["current"] != "1" || f["observed"] != "40" {
		t.Fatalf("event fields %v do not carry the decision inputs", f)
	}
	if !events[0].At.Equal(start.Add(7 * 24 * time.Hour)) {
		t.Fatalf("event time %v != decision time", events[0].At)
	}
}

// decisionTriggers lists the triggers of the provisioning decisions in l,
// oldest first, skipping reactive checks that changed nothing ("none").
func decisionTriggers(l *obs.EventLog) []string {
	var out []string
	for _, e := range l.Tail(0) {
		if e.Kind == obs.EventProvisionDecision && e.Fields["trigger"] != "none" {
			out = append(out, e.Fields["trigger"])
		}
	}
	return out
}
