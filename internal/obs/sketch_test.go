package obs

import (
	"fmt"
	"sync"
	"testing"
)

func TestTopKExactWhenUnderCapacity(t *testing.T) {
	tk := NewTopK(8)
	tk.Observe("a", 5)
	tk.Observe("b", 3)
	tk.Observe("a", 2)
	snap := tk.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("want 2 entries, got %d: %+v", len(snap), snap)
	}
	if snap[0].Key != "a" || snap[0].Count != 7 || snap[0].Err != 0 {
		t.Fatalf("top entry wrong: %+v", snap[0])
	}
	if snap[1].Key != "b" || snap[1].Count != 3 || snap[1].Err != 0 {
		t.Fatalf("second entry wrong: %+v", snap[1])
	}
	if tk.Total() != 10 {
		t.Fatalf("total = %d, want 10", tk.Total())
	}
}

func TestTopKEvictionKeepsHeavyHitters(t *testing.T) {
	tk := NewTopK(4)
	// Heavy hitters observed repeatedly; a long tail of singletons churns
	// the low end of the sketch.
	exact := map[string]uint64{}
	observe := func(key string, d uint64) {
		tk.Observe(key, d)
		exact[key] += d
	}
	for i := 0; i < 100; i++ {
		observe("hot-1", 3)
		observe("hot-2", 2)
		observe(fmt.Sprintf("tail-%d", i), 1)
	}
	snap := tk.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("want sketch at capacity 4, got %d", len(snap))
	}
	keys := map[string]TopKEntry{}
	for _, e := range snap {
		keys[e.Key] = e
	}
	for _, hot := range []string{"hot-1", "hot-2"} {
		e, ok := keys[hot]
		if !ok {
			t.Fatalf("heavy hitter %s evicted: %+v", hot, snap)
		}
		// Space-saving guarantee: Count overestimates by at most Err.
		if e.Count < exact[hot] {
			t.Fatalf("%s count %d underestimates exact %d", hot, e.Count, exact[hot])
		}
		if e.Count-e.Err > exact[hot] {
			t.Fatalf("%s lower bound %d exceeds exact %d", hot, e.Count-e.Err, exact[hot])
		}
	}
	if snap[0].Key != "hot-1" {
		t.Fatalf("top-1 should be hot-1, got %+v", snap)
	}
	if tk.Total() != 100*3+100*2+100 {
		t.Fatalf("total = %d", tk.Total())
	}
}

func TestTopKNilAndZero(t *testing.T) {
	var tk *TopK
	tk.Observe("x", 1) // must not panic
	if tk.Snapshot() != nil || tk.Total() != 0 {
		t.Fatal("nil sketch should be empty")
	}
	tk2 := NewTopK(2)
	tk2.Observe("x", 0) // zero delta ignored
	if len(tk2.Snapshot()) != 0 {
		t.Fatal("zero delta should not create an entry")
	}
}

func TestTopKConcurrent(t *testing.T) {
	tk := NewTopK(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tk.Observe(fmt.Sprintf("k%d", i%16), 1)
			}
		}(g)
	}
	wg.Wait()
	if tk.Total() != 8000 {
		t.Fatalf("total = %d, want 8000", tk.Total())
	}
}

func TestHotStatsObserve(t *testing.T) {
	var nilHot *HotStats
	nilHot.ObserveCommit("w", 3, 100) // nil-safe
	if s := nilHot.Snapshot(); len(s.Commits) != 0 {
		t.Fatal("nil HotStats should snapshot empty")
	}
	h := NewHotStats(4)
	h.ObserveCommit("w1", 3, 100)
	h.ObserveCommit("w1", 2, 50)
	h.ObserveCommit("w2", 1, 10)
	s := h.Snapshot()
	if s.Commits[0].Key != "w1" || s.Commits[0].Count != 2 {
		t.Fatalf("commits: %+v", s.Commits)
	}
	if s.NotifyFanout[0].Key != "w1" || s.NotifyFanout[0].Count != 5 {
		t.Fatalf("fanout: %+v", s.NotifyFanout)
	}
	if s.Transfer[0].Key != "w1" || s.Transfer[0].Count != 150 {
		t.Fatalf("transfer: %+v", s.Transfer)
	}
}
