package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// Ops and ArrivalTraces carry JSON tags so a generated trace can be saved
// and replayed; these tests pin the round-trip so saved traces stay
// replayable across versions.

func TestOpJSONRoundTrip(t *testing.T) {
	tr := Generate(GenConfig{Seed: 4, Snapshots: 10})
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, op := range tr.Ops {
		if err := enc.Encode(op); err != nil {
			t.Fatal(err)
		}
	}
	dec := json.NewDecoder(&buf)
	for i := range tr.Ops {
		var got Op
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if got != tr.Ops[i] {
			t.Fatalf("op %d round trip: %+v vs %+v", i, got, tr.Ops[i])
		}
	}
}

func TestArrivalTraceJSONRoundTrip(t *testing.T) {
	at := GenerateUB1(UB1Config{Days: 1, Seed: 3, Step: 5 * time.Minute})
	raw, err := json.Marshal(at)
	if err != nil {
		t.Fatal(err)
	}
	var got ArrivalTrace
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Start.Equal(at.Start) || got.Step != at.Step || len(got.Rates) != len(at.Rates) {
		t.Fatalf("metadata mismatch: %+v vs %+v", got.Start, at.Start)
	}
	for i := range at.Rates {
		if got.Rates[i] != at.Rates[i] {
			t.Fatalf("rate %d differs", i)
		}
	}
	// A decoded trace answers queries identically.
	probe := at.Start.Add(7 * time.Hour)
	if got.RateAt(probe) != at.RateAt(probe) {
		t.Fatal("decoded trace answers differently")
	}
}

// TestReplayedTraceFromJSONMatchesOriginal pins the save-and-replay workflow:
// generate, serialize, deserialize, materialize — contents must match the
// direct replay byte for byte.
func TestReplayedTraceFromJSONMatchesOriginal(t *testing.T) {
	tr := Generate(GenConfig{Seed: 6, Snapshots: 15})
	raw, err := json.Marshal(tr.Ops)
	if err != nil {
		t.Fatal(err)
	}
	var ops []Op
	if err := json.Unmarshal(raw, &ops); err != nil {
		t.Fatal(err)
	}

	direct := NewMaterializer(6)
	decoded := NewMaterializer(6)
	for i, op := range tr.Ops {
		a, errA := direct.Apply(op)
		b, errB := decoded.Apply(ops[i])
		if (errA == nil) != (errB == nil) {
			t.Fatalf("op %d error mismatch: %v vs %v", i, errA, errB)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("op %d content diverged", i)
		}
	}
}
