package objstore

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"stacksync/internal/clock"
	"stacksync/internal/faults"
	"stacksync/internal/obs"
)

// The cross-implementation contract lives in the storetest conformance
// suite (see conformance_test.go). The tests here cover backend- and
// wrapper-specific behaviour the shared suite cannot: aliasing, crash
// persistence, accounting, the latency model and fault injection.

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

func TestDiskSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d1, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	_ = d1.EnsureContainer(ctx, "c")
	if err := d1.PutMulti(ctx, "c", []Object{{Key: "deadbeef", Data: []byte("persisted")}}); err != nil {
		t.Fatal(err)
	}
	d2, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d2.GetMulti(ctx, "c", []string{"deadbeef"})
	if err != nil || string(got[0]) != "persisted" {
		t.Fatalf("after reopen: %q, %v", got, err)
	}
}

func TestDiskSanitizesHostileKeys(t *testing.T) {
	root := t.TempDir()
	d, err := NewDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	_ = d.EnsureContainer(ctx, "c")
	if err := d.PutMulti(ctx, "c", []Object{{Key: "../../etc/passwd", Data: []byte("nope")}}); err != nil {
		t.Fatal(err)
	}
	got, err := d.GetMulti(ctx, "c", []string{"../../etc/passwd"})
	if err != nil || string(got[0]) != "nope" {
		t.Fatalf("hostile key round trip: %q, %v", got, err)
	}
	// The object is one file inside the container, nothing outside it.
	if files, _ := os.ReadDir(d.containerPath("c")); len(files) != 1 {
		t.Fatalf("container holds %v", files)
	}
	if entries, _ := os.ReadDir(root); len(entries) != 1 {
		t.Fatalf("store root holds %v", entries)
	}
}

// TestDiskServesRecentObjects: a small object Disk just wrote is served from
// memory — repeated gets read no file — as a copy the caller may write to.
// An empty object stays an empty non-nil slice. Overwrites with other bytes,
// concurrent ones included, leave memory agreeing with the file. An object
// over the size cap, or one evicted past the byte budget, is read from its
// file.
func TestDiskServesRecentObjects(t *testing.T) {
	if _, err := os.Stat("/proc/self/io"); err != nil {
		t.Skip("counts system calls in /proc/self/io, which this platform lacks")
	}
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_ = d.EnsureContainer(ctx, "c")
	put := func(key string, data []byte) {
		t.Helper()
		if err := d.PutMulti(ctx, "c", []Object{{Key: key, Data: data}}); err != nil {
			t.Fatal(err)
		}
	}
	// Reading the counter costs read calls of its own: measure them once.
	idle := obs.ProcessIO("syscr")
	idle = obs.ProcessIO("syscr") - idle
	// get returns key's bytes and how many read calls the process made.
	get := func(key string) ([]byte, int64) {
		t.Helper()
		before := obs.ProcessIO("syscr")
		got, err := d.GetMulti(ctx, "c", []string{key})
		reads := obs.ProcessIO("syscr") - before - idle
		if err != nil {
			t.Fatal(err)
		}
		return got[0], reads
	}
	fill := func(n int, seed byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = seed + byte(i)
		}
		return b
	}

	hot := fill(4<<10, 1)
	put("hot", hot)
	hot[0]++ // the set kept a copy, not the caller's buffer
	for i := 0; i < 5; i++ {
		got, reads := get("hot")
		if reads != 0 || !bytes.Equal(got, fill(4<<10, 1)) {
			t.Fatalf("get %d of a fresh 4 KB object: %d reads, right bytes %v", i, reads, bytes.Equal(got, fill(4<<10, 1)))
		}
		got[0]++ // must not reach the next get
	}

	put("empty", nil)
	if got, reads := get("empty"); got == nil || len(got) != 0 || reads != 0 {
		t.Fatalf("empty object: %v (nil %v), %d reads", got, got == nil, reads)
	}

	// Concurrent overwrites with different bytes, small and over the cap.
	path := filepath.Join(d.containerPath("c"), "contended")
	versions := [][]byte{fill(1<<10, 7), fill(2<<10, 9), fill(recentMaxObject+1, 11)}
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for _, v := range versions {
			wg.Add(1)
			go func(v []byte) {
				defer wg.Done()
				_ = d.PutMulti(ctx, "c", []Object{{Key: "contended", Data: v}})
			}(v)
		}
		wg.Wait()
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := get("contended"); !bytes.Equal(got, onDisk) {
			t.Fatalf("round %d: get returns %d B, the file holds %d B", round, len(got), len(onDisk))
		}
	}

	big := fill(recentMaxObject+1, 3)
	put("big", big)
	if got, reads := get("big"); reads == 0 || !bytes.Equal(got, big) {
		t.Fatalf("object over the cap: %d reads, right bytes %v", reads, bytes.Equal(got, big))
	}

	first := fill(4<<10, 5)
	put("first", first)
	for i := 0; i <= recentBudget/recentMaxObject; i++ {
		put("filler-"+strconv.Itoa(i), fill(recentMaxObject, byte(i)))
	}
	if got, reads := get("first"); reads == 0 || !bytes.Equal(got, first) {
		t.Fatalf("evicted object: %d reads, right bytes %v", reads, bytes.Equal(got, first))
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
