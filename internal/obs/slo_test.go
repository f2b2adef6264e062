package obs

import (
	"math"
	"testing"
	"time"
)

// TestSLOTrackerBurnMath pins the attainment and error-budget arithmetic:
// 2 misses in 100 at a 99% objective burns the budget at exactly 2×.
func TestSLOTrackerBurnMath(t *testing.T) {
	tr := NewSLOTracker(SLOConfig{Target: 450 * time.Millisecond, Objective: 0.99})

	for i := 0; i < 98; i++ {
		tr.Observe(100 * time.Millisecond)
	}
	tr.Observe(time.Second)
	tr.Observe(2 * time.Second)

	if att := tr.Attainment(); att != 0.98 {
		t.Fatalf("Attainment() = %v, want exactly 0.98", att)
	}
	if burn := tr.BurnRate(); math.Abs(burn-2) > 1e-12 {
		t.Fatalf("BurnRate() = %v, want 2", burn)
	}
	// Boundary: a request exactly at the target is good.
	tr2 := NewSLOTracker(SLOConfig{Target: 450 * time.Millisecond, Objective: 0.99})
	tr2.Observe(450 * time.Millisecond)
	if att := tr2.Attainment(); att != 1 {
		t.Fatalf("boundary observation counted as miss: attainment %v", att)
	}
	if burn := tr2.BurnRate(); burn != 0 {
		t.Fatalf("BurnRate() = %v with no misses, want 0", burn)
	}
}
