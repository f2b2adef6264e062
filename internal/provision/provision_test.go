package provision

import (
	"math"
	"testing"
	"time"

	"stacksync/internal/obs"
	"stacksync/internal/omq"
)

func TestServiceRateEquationOne(t *testing.T) {
	sla := DefaultSLA()
	// δ = 1 / (s + (σa²+σb²)/(2(d-s))) with d=0.45, s=0.05.
	varA := 0.0001
	want := 1 / (0.05 + (0.0001+200e-6)/(2*0.4))
	got := ServiceRate(sla, varA)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("ServiceRate = %v, want %v", got, want)
	}
}

func TestServiceRateUnattainableSLA(t *testing.T) {
	sla := SLA{D: 40 * time.Millisecond, S: 50 * time.Millisecond}
	if got := ServiceRate(sla, 0); got != 0 {
		t.Fatalf("d<=s must return 0, got %v", got)
	}
}

func TestInstancesForEquationTwo(t *testing.T) {
	tests := []struct {
		lambda, delta float64
		want          int
	}{
		{0, 10, 0},
		{-5, 10, 0},
		{10, 10, 1},
		{10.1, 10, 2},
		{142, 19.6, 8}, // ~UB1 peak against Table 3 capacity
		{1, 0, math.MaxInt32},
	}
	for _, tt := range tests {
		if got := InstancesFor(tt.lambda, tt.delta); got != tt.want {
			t.Fatalf("InstancesFor(%v, %v) = %d, want %d", tt.lambda, tt.delta, got, tt.want)
		}
	}
}

func TestInstancesForRateMonotonic(t *testing.T) {
	// At very low λ the exponential interarrival estimate (σ_a² = 1/λ²)
	// dominates equation (1) and can demand an extra instance, so strict
	// monotonicity only holds once λ is large enough for σ_a² to be small.
	sla := DefaultSLA()
	prev := 0
	for lambda := 20.0; lambda < 500; lambda += 7 {
		n := InstancesForRate(sla, lambda)
		if n < prev {
			t.Fatalf("instances decreased with load: λ=%v -> %d after %d", lambda, n, prev)
		}
		prev = n
	}
	if prev < 10 {
		t.Fatalf("500 req/s should need many instances, got %d", prev)
	}
}

func TestArrivalVarianceEstimate(t *testing.T) {
	sla := SLA{VarArrival: 0.5}
	if got := sla.arrivalVariance(100); got != 0.5 {
		t.Fatalf("configured variance ignored: %v", got)
	}
	sla.VarArrival = 0
	if got := sla.arrivalVariance(10); math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("exponential estimate = %v, want 0.01", got)
	}
	if got := sla.arrivalVariance(0); got != 0 {
		t.Fatalf("zero rate variance = %v", got)
	}
}

func day(dayIdx int) time.Time {
	return time.Date(2013, 11, 1+dayIdx, 0, 0, 0, 0, time.UTC)
}

func TestPredictiveUsesSlotHistory(t *testing.T) {
	sla := DefaultSLA()
	p := NewPredictive(sla, 0.95, 0)
	// Seven days of history: constant 10 req/s at night, 100 req/s at noon.
	for d := 0; d < 7; d++ {
		samples := make([]float64, slotsPerDay)
		for s := range samples {
			hour := s * int(PeriodDuration.Seconds()) / 3600
			if hour >= 11 && hour < 14 {
				samples[s] = 100
			} else {
				samples[s] = 10
			}
		}
		p.LoadHistory(day(d), samples)
	}
	noon := time.Date(2013, 11, 8, 12, 0, 0, 0, time.UTC)
	night := time.Date(2013, 11, 8, 3, 0, 0, 0, time.UTC)
	if got := p.PredictedRate(noon); math.Abs(got-100) > 1e-9 {
		t.Fatalf("noon prediction = %v, want 100", got)
	}
	if got := p.PredictedRate(night); math.Abs(got-10) > 1e-9 {
		t.Fatalf("night prediction = %v, want 10", got)
	}
	// Instance counts follow the prediction.
	nNoon := p.Desired(noon, omq.ObjectInfo{ArrivalRate: 90})
	nNight := p.Desired(night, omq.ObjectInfo{ArrivalRate: 12})
	if nNoon <= nNight {
		t.Fatalf("noon instances (%d) must exceed night (%d)", nNoon, nNight)
	}
}

func TestPredictivePercentileSkipsOutliers(t *testing.T) {
	p := NewPredictive(DefaultSLA(), 0.5, 0) // median
	start := day(0)
	for i := 0; i < 9; i++ {
		p.LoadHistory(day(i), []float64{float64(10 * (i + 1))}) // slot 0: 10..90
	}
	got := p.PredictedRate(start)
	if got < 40 || got > 60 {
		t.Fatalf("median of 10..90 = %v", got)
	}
}

func TestPredictiveNoHistoryPredictsZero(t *testing.T) {
	p := NewPredictive(DefaultSLA(), 0.95, 0)
	if got := p.PredictedRate(day(0)); got != 0 {
		t.Fatalf("empty history prediction = %v", got)
	}
}

func TestPredictiveObserveFoldsSlotPeaks(t *testing.T) {
	p := NewPredictive(DefaultSLA(), 0.95, 0)
	base := time.Date(2013, 11, 1, 10, 0, 0, 0, time.UTC)
	// Slot covering 10:00-10:15 sees a peak of 55.
	p.Observe(base, 20)
	p.Observe(base.Add(5*time.Minute), 55)
	p.Observe(base.Add(10*time.Minute), 30)
	// Rolling into the next slot folds the peak into history.
	p.Observe(base.Add(16*time.Minute), 5)
	if got := p.PredictedRate(base.AddDate(0, 0, 1)); math.Abs(got-55) > 1e-9 {
		t.Fatalf("folded slot peak = %v, want 55", got)
	}
}

func TestReactiveTriggersOnDivergence(t *testing.T) {
	sla := DefaultSLA()
	predicted := func(time.Time) float64 { return 100 }
	r := NewReactive(sla, 0.2, 0.2, predicted)
	now := day(0)

	// Within ±20%: no correction.
	if _, ok := r.Check(now, 110); ok {
		t.Fatal("corrected within tolerance")
	}
	if _, ok := r.Check(now, 85); ok {
		t.Fatal("corrected within tolerance (low side)")
	}
	// +30%: correct upward using observed rate.
	n, ok := r.Check(now, 130)
	if !ok || n != InstancesForRate(sla, 130) {
		t.Fatalf("overload correction = %d, %v", n, ok)
	}
	// -40%: correct downward.
	n, ok = r.Check(now, 60)
	if !ok || n != InstancesForRate(sla, 60) {
		t.Fatalf("underload correction = %d, %v", n, ok)
	}
}

func TestReactiveWithoutPredictionAlwaysRecomputes(t *testing.T) {
	r := NewReactive(DefaultSLA(), 0, 0, nil)
	n := r.Desired(day(0), omq.ObjectInfo{ArrivalRate: 50})
	if n != InstancesForRate(DefaultSLA(), 50) {
		t.Fatalf("reactive-only desired = %d", n)
	}
}

func TestCombinedPredictiveBaselineAndReactiveOverride(t *testing.T) {
	sla := DefaultSLA()
	p := NewPredictive(sla, 0.95, 0)
	// History says slot rate is 100 req/s all day.
	for d := 0; d < 7; d++ {
		samples := make([]float64, slotsPerDay)
		for s := range samples {
			samples[s] = 100
		}
		p.LoadHistory(day(d), samples)
	}
	c := NewCombined(sla, p)
	l := obs.NewEventLog(64)
	c.SetEventLog(l)
	start := time.Date(2013, 11, 8, 9, 0, 0, 0, time.UTC)

	// First call: predictive baseline.
	base := c.Desired(start, omq.ObjectInfo{ArrivalRate: 100})
	if base != InstancesForRate(sla, 100) {
		t.Fatalf("baseline = %d", base)
	}
	// Within the period, matching observation: target unchanged.
	if got := c.Desired(start.Add(time.Minute), omq.ObjectInfo{ArrivalRate: 105}); got != base {
		t.Fatalf("target drifted without trigger: %d", got)
	}
	// After the reactive interval with a flash crowd: override upward.
	flash := c.Desired(start.Add(ReactiveInterval+time.Second), omq.ObjectInfo{ArrivalRate: 250})
	if flash <= base {
		t.Fatalf("flash crowd not corrected: %d <= %d", flash, base)
	}
	if got := decisionTriggers(l); len(got) < 2 || got[0] != "predictive" || got[len(got)-1] != "reactive" {
		t.Fatalf("decision triggers: %v", got)
	}
	if c.Target() != flash {
		t.Fatalf("Target() = %d, want %d", c.Target(), flash)
	}
}

func TestCombinedMispredictionCorrectedByReactive(t *testing.T) {
	// The Fig. 8(c-e) scenario: the predictor plans for a low-traffic hour
	// while a high-traffic hour actually runs; the reactive layer repairs
	// the allocation within one reactive interval.
	sla := DefaultSLA()
	p := NewPredictive(sla, 0.95, 0)
	for d := 0; d < 7; d++ {
		samples := make([]float64, slotsPerDay)
		for s := range samples {
			hour := s * int(PeriodDuration.Seconds()) / 3600
			if hour == 20 {
				samples[s] = 140 // busy evening
			} else {
				samples[s] = 5 // quiet otherwise (incl. hour 6 = 30-10)
			}
		}
		p.LoadHistory(day(d), samples)
	}
	c := NewCombined(sla, p)
	// Fool the predictor: hour 20 runs, but it plans for hour 20+10=6.
	c.SetMispredictionOffset(10 * time.Hour)

	runStart := time.Date(2013, 11, 8, 20, 0, 0, 0, time.UTC)
	under := c.Desired(runStart, omq.ObjectInfo{ArrivalRate: 140})
	correct := InstancesForRate(sla, 140)
	if under >= correct {
		t.Fatalf("misprediction did not underprovision: %d vs %d", under, correct)
	}
	// One reactive interval later the observed 140 req/s wins.
	fixed := c.Desired(runStart.Add(ReactiveInterval+time.Second), omq.ObjectInfo{ArrivalRate: 140})
	if fixed != correct {
		t.Fatalf("reactive failed to repair: %d, want %d", fixed, correct)
	}
}
