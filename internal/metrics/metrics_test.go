package metrics

import (
	"math"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestPercentile(t *testing.T) {
	values := []float64{5, 1, 4, 2, 3}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {0.2, 1}, {0.4, 2}, {0.5, 3}, {0.8, 4}, {0.95, 5}, {1, 5},
	}
	for _, tt := range tests {
		if got := Percentile(values, tt.p); got != tt.want {
			t.Fatalf("Percentile(%.2f) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
}

func TestPercentileWithinRangeProperty(t *testing.T) {
	f := func(raw []float64, p float64) bool {
		vals := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		p = math.Abs(math.Mod(p, 1))
		got := Percentile(vals, p)
		sorted := append([]float64{}, vals...)
		sort.Float64s(sorted)
		return got >= sorted[0] && got <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFFullResolution(t *testing.T) {
	pts := CDF([]float64{1, 2, 2, 3}, nil)
	want := []CDFPoint{{1, 0.25}, {2, 0.75}, {3, 1.0}}
	if len(pts) != len(want) {
		t.Fatalf("CDF points = %+v", pts)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("CDF[%d] = %+v, want %+v", i, pts[i], want[i])
		}
	}
}

func TestCDFProbes(t *testing.T) {
	pts := CDF([]float64{10, 20, 30, 40}, []float64{5, 20, 35, 100})
	wantFracs := []float64{0, 0.5, 0.75, 1}
	for i, p := range pts {
		if p.Fraction != wantFracs[i] {
			t.Fatalf("probe %v fraction = %v, want %v", p.Value, p.Fraction, wantFracs[i])
		}
	}
	if CDF(nil, []float64{1}) != nil {
		t.Fatal("empty input should give nil")
	}
}

func TestBoxplotFiveNumbers(t *testing.T) {
	b := NewBoxplot([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if b.Min != 1 || b.Max != 10 || b.N != 10 {
		t.Fatalf("boxplot extremes: %+v", b)
	}
	if b.Median != 5 {
		t.Fatalf("median = %v", b.Median)
	}
	if b.Q1 != 3 || b.Q3 != 8 {
		t.Fatalf("quartiles: Q1=%v Q3=%v", b.Q1, b.Q3)
	}
	if math.Abs(b.Mean-5.5) > 1e-12 {
		t.Fatalf("mean = %v", b.Mean)
	}
	if b.Outliers != 0 {
		t.Fatalf("outliers = %d", b.Outliers)
	}
}

func TestBoxplotDetectsOutliers(t *testing.T) {
	values := []float64{1, 2, 2, 3, 3, 3, 4, 4, 5, 100}
	b := NewBoxplot(values)
	if b.Outliers != 1 {
		t.Fatalf("outliers = %d, want 1 (%+v)", b.Outliers, b)
	}
	if b.UpperWhisker >= 100 {
		t.Fatalf("whisker includes the outlier: %v", b.UpperWhisker)
	}
	if b.Max != 100 {
		t.Fatalf("max = %v", b.Max)
	}
}

func TestBoxplotEmpty(t *testing.T) {
	if b := NewBoxplot(nil); b.N != 0 || b.Mean != 0 {
		t.Fatalf("empty boxplot: %+v", b)
	}
}

func TestSkewness(t *testing.T) {
	symmetric := []float64{1, 2, 3, 4, 5}
	if s := Skewness(symmetric); math.Abs(s) > 1e-9 {
		t.Fatalf("symmetric skewness = %v", s)
	}
	rightSkewed := []float64{1, 1, 1, 1, 2, 2, 3, 10, 20}
	if s := Skewness(rightSkewed); s <= 0.5 {
		t.Fatalf("right-skewed skewness = %v", s)
	}
	if s := Skewness([]float64{1}); s != 0 {
		t.Fatalf("tiny sample skewness = %v", s)
	}
	if s := Skewness([]float64{3, 3, 3, 3}); s != 0 {
		t.Fatalf("zero-variance skewness = %v", s)
	}
}

func TestRecorderStatistics(t *testing.T) {
	r := NewRecorder()
	for _, ms := range []int{10, 20, 30, 40, 50} {
		r.Observe(time.Duration(ms) * time.Millisecond)
	}
	if r.Count() != 5 {
		t.Fatalf("count = %d", r.Count())
	}
	if got := r.Mean(); math.Abs(got-0.03) > 1e-9 {
		t.Fatalf("mean = %v", got)
	}
	if got := r.Percentile(0.95); got != 0.05 {
		t.Fatalf("p95 = %v", got)
	}
	b := r.Boxplot()
	if b.N != 5 || b.Median != 0.03 {
		t.Fatalf("boxplot: %+v", b)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.ObserveSeconds(0.001)
			}
		}()
	}
	wg.Wait()
	if r.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", r.Count())
	}
	if math.Abs(r.Mean()-0.001) > 1e-12 {
		t.Fatalf("mean = %v", r.Mean())
	}
}

func TestRecorderSamplesIsCopy(t *testing.T) {
	r := NewRecorder()
	r.ObserveSeconds(1)
	s := r.Samples()
	s[0] = 999
	if r.Samples()[0] != 1 {
		t.Fatal("Samples leaked internal state")
	}
}
