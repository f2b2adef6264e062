// Package metrics provides the summary statistics the evaluation section
// reports: percentiles, CDF series (Fig. 7a), boxplot five-number summaries
// (Fig. 7e, 8f) and concurrent recorders for response times.
package metrics

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Percentile returns the p-th percentile (0..1) of values using nearest-rank
// on a sorted copy. An empty input yields 0.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value    float64 `json:"value"`
	Fraction float64 `json:"fraction"`
}

// CDF computes the empirical CDF of values sampled at the given probe
// points; with nil probes it returns one point per distinct value.
func CDF(values []float64, probes []float64) []CDFPoint {
	if len(values) == 0 {
		return nil
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	if probes == nil {
		var out []CDFPoint
		for i, v := range sorted {
			if i+1 < len(sorted) && sorted[i+1] == v {
				continue
			}
			out = append(out, CDFPoint{Value: v, Fraction: float64(i+1) / n})
		}
		return out
	}
	out := make([]CDFPoint, len(probes))
	for i, p := range probes {
		idx := sort.SearchFloat64s(sorted, math.Nextafter(p, math.Inf(1)))
		out[i] = CDFPoint{Value: p, Fraction: float64(idx) / n}
	}
	return out
}

// Boxplot is the five-number summary plus mean, as in the paper's boxplots.
type Boxplot struct {
	Min          float64 `json:"min"`
	Q1           float64 `json:"q1"`
	Median       float64 `json:"median"`
	Q3           float64 `json:"q3"`
	Max          float64 `json:"max"`
	Mean         float64 `json:"mean"`
	UpperWhisker float64 `json:"upperWhisker"` // largest value <= Q3 + 1.5*IQR
	LowerWhisker float64 `json:"lowerWhisker"` // smallest value >= Q1 - 1.5*IQR
	Outliers     int     `json:"outliers"`     // count beyond the whiskers
	N            int     `json:"n"`
}

// NewBoxplot summarizes values.
func NewBoxplot(values []float64) Boxplot {
	if len(values) == 0 {
		return Boxplot{}
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	b := Boxplot{
		Min:    sorted[0],
		Q1:     Percentile(sorted, 0.25),
		Median: Percentile(sorted, 0.50),
		Q3:     Percentile(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
		Mean:   sum / float64(len(sorted)),
		N:      len(sorted),
	}
	iqr := b.Q3 - b.Q1
	hi := b.Q3 + 1.5*iqr
	lo := b.Q1 - 1.5*iqr
	b.UpperWhisker = b.Min
	b.LowerWhisker = b.Max
	for _, v := range sorted {
		if v <= hi && v > b.UpperWhisker {
			b.UpperWhisker = v
		}
		if v >= lo && v < b.LowerWhisker {
			b.LowerWhisker = v
		}
		if v > hi || v < lo {
			b.Outliers++
		}
	}
	return b
}

// Skewness returns the sample skewness of values (0 for n < 3 or zero
// variance). Fig. 7(e) reads right-skew off the UPDATE distribution.
func Skewness(values []float64) float64 {
	n := float64(len(values))
	if n < 3 {
		return 0
	}
	var mean float64
	for _, v := range values {
		mean += v
	}
	mean /= n
	var m2, m3 float64
	for _, v := range values {
		d := v - mean
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return 0
	}
	return m3 / math.Pow(m2, 1.5)
}

// Recorder accumulates duration samples concurrently and keeps every one,
// so percentiles and boxplots are exact.
type Recorder struct {
	mu      sync.Mutex
	samples []float64 // seconds
	mean    float64   // running mean (Welford)
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Observe adds one duration sample.
func (r *Recorder) Observe(d time.Duration) { r.ObserveSeconds(d.Seconds()) }

// ObserveSeconds adds one sample expressed in seconds.
func (r *Recorder) ObserveSeconds(s float64) {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mean += (s - r.mean) / float64(len(r.samples))
	r.mu.Unlock()
}

// Count returns the number of observations.
func (r *Recorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.samples)
}

// Mean returns the sample mean in seconds.
func (r *Recorder) Mean() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.mean
}

// Percentile returns the p-th percentile in seconds.
func (r *Recorder) Percentile(p float64) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Percentile(r.samples, p)
}

// Samples returns a copy of the samples in seconds.
func (r *Recorder) Samples() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]float64, len(r.samples))
	copy(out, r.samples)
	return out
}

// Boxplot summarizes the samples.
func (r *Recorder) Boxplot() Boxplot { return NewBoxplot(r.Samples()) }
