package objstore

import (
	"context"
	"errors"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"stacksync/internal/clock"
	"stacksync/internal/faults"
)

// The cross-implementation contract lives in the storetest conformance
// suite (see conformance_test.go). The tests here cover backend- and
// wrapper-specific behaviour the shared suite cannot: aliasing, accounting,
// the latency model and fault injection; disk_test.go covers Disk.

var ctx = context.Background()

func TestMemoryGetReturnsCopy(t *testing.T) {
	m := NewMemory()
	_ = m.EnsureContainer(ctx, "c")
	_ = m.PutMulti(ctx, "c", []Object{{Key: "k", Data: []byte("original")}})
	got, _ := m.GetMulti(ctx, "c", []string{"k", "k"})
	got[0][0] = 'X'
	if string(got[1]) != "original" {
		t.Fatalf("entries of one batch share a buffer: %q", got[1])
	}
	again, _ := m.GetMulti(ctx, "c", []string{"k"})
	if string(again[0]) != "original" {
		t.Fatalf("internal state mutated through returned slice: %q", again[0])
	}
}

func TestMemoryPutCopiesInput(t *testing.T) {
	m := NewMemory()
	_ = m.EnsureContainer(ctx, "c")
	buf := []byte("original")
	_ = m.PutMulti(ctx, "c", []Object{{Key: "k", Data: buf}})
	buf[0] = 'X'
	got, _ := m.GetMulti(ctx, "c", []string{"k"})
	if string(got[0]) != "original" {
		t.Fatalf("store aliased caller's buffer: %q", got[0])
	}
}

// TestMemoryPutMultiCopiesInput: objects of one batch that share the
// caller's buffer are stored as independent copies.
func TestMemoryPutMultiCopiesInput(t *testing.T) {
	m := NewMemory()
	_ = m.EnsureContainer(ctx, "c")
	buf := []byte("original")
	_ = m.PutMulti(ctx, "c", []Object{{Key: "k1", Data: buf}, {Key: "k2", Data: buf[:4]}})
	buf[0] = 'X'
	got, _ := m.GetMulti(ctx, "c", []string{"k1", "k2"})
	if string(got[0]) != "original" || string(got[1]) != "orig" {
		t.Fatalf("store aliased caller's batch buffer: %q", got)
	}
}

func TestMeteredCountsTraffic(t *testing.T) {
	m := NewMetered(NewMemory())
	_ = m.EnsureContainer(ctx, "c")
	_ = m.PutMulti(ctx, "c", []Object{{Key: "k1", Data: make([]byte, 1000)}})
	_ = m.PutMulti(ctx, "c", []Object{{Key: "k2", Data: make([]byte, 500)}})
	if _, err := m.GetMulti(ctx, "c", []string{"k1"}); err != nil {
		t.Fatal(err)
	}
	_, _ = m.ExistsMulti(ctx, "c", []string{"k1"})
	tr := m.Traffic()
	if tr.Puts != 2 || tr.Gets != 1 || tr.OtherRequests != 2 {
		t.Fatalf("request counts: %+v", tr)
	}
	if tr.BytesUp != 1500 || tr.BytesDown != 1000 {
		t.Fatalf("byte counts: %+v", tr)
	}
	if tr.Total() != 2500 {
		t.Fatalf("total = %d", tr.Total())
	}
	m.Reset()
	if m.Traffic().Total() != 0 {
		t.Fatal("reset did not zero counters")
	}
}

// TestMeteredBatchChargesPerObject: a batch of n objects must meter exactly
// like n single operations, so traffic experiments stay comparable whether
// or not the client batches.
func TestMeteredBatchChargesPerObject(t *testing.T) {
	m := NewMetered(NewMemory())
	_ = m.EnsureContainer(ctx, "c")
	if err := m.PutMulti(ctx, "c", []Object{
		{Key: "k1", Data: make([]byte, 1000)},
		{Key: "k2", Data: make([]byte, 500)},
		{Key: "k3", Data: make([]byte, 250)},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.GetMulti(ctx, "c", []string{"k1", "k2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ExistsMulti(ctx, "c", []string{"k1", "k2", "k3", "k4"}); err != nil {
		t.Fatal(err)
	}
	tr := m.Traffic()
	if tr.Puts != 3 || tr.BytesUp != 1750 {
		t.Fatalf("batch put accounting: %+v", tr)
	}
	if tr.Gets != 2 || tr.BytesDown != 1500 {
		t.Fatalf("batch get accounting: %+v", tr)
	}
	// EnsureContainer (1) + the four probed keys.
	if tr.OtherRequests != 5 {
		t.Fatalf("batch exists accounting: %+v", tr)
	}
	// A miss still charges its get request, but moves no bytes.
	_, _ = m.GetMulti(ctx, "c", []string{"k1", "missing"})
	tr = m.Traffic()
	if tr.Gets != 4 || tr.BytesDown != 2500 {
		t.Fatalf("partial batch get accounting: %+v", tr)
	}
}

func TestMeteredTrafficProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		m := NewMetered(NewMemory())
		_ = m.EnsureContainer(ctx, "c")
		var up uint64
		for i, s := range sizes {
			data := make([]byte, int(s)%4096)
			_ = m.PutMulti(ctx, "c", []Object{{Key: string(rune('a' + i%26)), Data: data}})
			up += uint64(len(data))
		}
		return m.Traffic().BytesUp == up
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulatedLatencyModel(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(0, 0))
	inner := NewMemory()
	_ = inner.EnsureContainer(ctx, "c")                          // set up without paying virtual latency
	s := NewSimulated(inner, vc, 10*time.Millisecond, 1_000_000) // 1 MB/s
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.PutMulti(ctx, "c", []Object{{Key: "k", Data: make([]byte, 500_000)}}) // 10ms + 500ms
	}()
	deadline := time.Now().Add(2 * time.Second)
	for {
		select {
		case <-done:
			// 10ms request + 500KB/1MBps = 510ms of virtual time paid.
			if got := vc.Now().Sub(time.Unix(0, 0)); got < 510*time.Millisecond {
				t.Fatalf("put paid only %v of virtual time", got)
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("simulated put never completed")
		}
		if vc.Waiters() > 0 {
			vc.Advance(100 * time.Millisecond)
		} else {
			time.Sleep(time.Millisecond)
		}
	}
}

// TestSimulatedBatchPaysPerObject: a batch must pay the same simulated time
// as its per-object loop — batching does not cheat the network model; only
// parallel batches overlap their cost.
func TestSimulatedBatchPaysPerObject(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(0, 0))
	inner := NewMemory()
	_ = inner.EnsureContainer(ctx, "c")
	s := NewSimulated(inner, vc, 10*time.Millisecond, 1_000_000) // 1 MB/s
	done := make(chan struct{})
	go func() {
		defer close(done)
		// 3 objects: 3×10ms requests + (100k+200k+300k)/1MBps = 630ms total.
		_ = s.PutMulti(ctx, "c", []Object{
			{Key: "a", Data: make([]byte, 100_000)},
			{Key: "b", Data: make([]byte, 200_000)},
			{Key: "c", Data: make([]byte, 300_000)},
		})
		// Probe batch: 2×10ms.
		_, _ = s.ExistsMulti(ctx, "c", []string{"a", "b"})
	}()
	deadline := time.Now().Add(2 * time.Second)
	for {
		select {
		case <-done:
			if got := vc.Now().Sub(time.Unix(0, 0)); got < 650*time.Millisecond {
				t.Fatalf("batch paid only %v of virtual time, want >= 650ms", got)
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("simulated batch never completed")
		}
		if vc.Waiters() > 0 {
			vc.Advance(100 * time.Millisecond)
		} else {
			time.Sleep(time.Millisecond)
		}
	}
}

func TestSimulatedZeroCostPassthrough(t *testing.T) {
	s := NewSimulated(NewMemory(), clock.NewReal(), 0, 0)
	_ = s.EnsureContainer(ctx, "c")
	if err := s.PutMulti(ctx, "c", []Object{{Key: "k", Data: []byte("fast")}}); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetMulti(ctx, "c", []string{"k"})
	if err != nil || string(got[0]) != "fast" {
		t.Fatalf("passthrough: %q, %v", got, err)
	}
}

// TestFaultyBatchRollsOneDecisionPerObject: a batch rolls one fault
// decision per object, in order, and stops at the first injected error with
// the prefix applied, so the plan's decision stream does not depend on how
// the caller batches.
func TestFaultyBatchRollsOneDecisionPerObject(t *testing.T) {
	plan := faults.NewPlan(faults.Config{Seed: 3, Sites: map[string]faults.SiteConfig{"objstore": {ErrorP: 0.3}}})
	var fails []int // the sequence keys of the first two injected errors
	for i := 0; len(fails) < 2; i++ {
		if plan.Decide("objstore", strconv.Itoa(i)).Kind == faults.Error {
			fails = append(fails, i)
		}
	}
	if fails[0] < 2 {
		t.Fatalf("seed puts the first fault at %d; pick one that leaves a prefix", fails[0])
	}
	inner := NewMemory()
	_ = inner.EnsureContainer(ctx, "c")
	f := NewFaulty(inner, plan, "objstore", nil)

	objs := make([]Object, fails[0]+3)
	keys := make([]string, len(objs))
	for i := range objs {
		keys[i] = strconv.Itoa(i)
		objs[i] = Object{Key: keys[i], Data: []byte("v")}
	}
	if err := f.PutMulti(ctx, "c", objs); !errors.Is(err, ErrInjected) {
		t.Fatalf("putmulti across a fault: %v", err)
	}
	present, _ := inner.ExistsMulti(ctx, "c", keys)
	for i, p := range present {
		if p != (i < fails[0]) {
			t.Fatalf("after a fault at object %d the store holds %v", fails[0], present)
		}
	}

	// The stream resumes at the next object: the decisions up to the second
	// fault pass, and the one after them fails.
	if _, err := f.ExistsMulti(ctx, "c", make([]string, fails[1]-fails[0]-1)); err != nil {
		t.Fatalf("existsmulti before the second fault: %v", err)
	}
	if _, err := f.GetMulti(ctx, "c", keys[:2]); !errors.Is(err, ErrInjected) {
		t.Fatalf("getmulti at the second fault: %v", err)
	}
	events := plan.Events()
	if len(events) != 2 || events[0].Key != strconv.Itoa(fails[0]) || events[1].Key != strconv.Itoa(fails[1]) {
		t.Fatalf("fault events %+v, want keys %v", events, fails)
	}
}
