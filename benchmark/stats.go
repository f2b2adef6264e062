package main

import (
	"math"
	"sort"
	"time"
)

// sortedCopy returns xs sorted ascending without touching the caller's slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank q-quantile (0 < q <= 1) of a sorted sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// trimmedMean is the mean of xs without its lowest and highest share (rounded
// up to whole samples, but never everything).
func trimmedMean(xs []float64, share float64) float64 {
	s := sortedCopy(xs)
	cut := int(math.Ceil(share * float64(len(s))))
	if 2*cut >= len(s) {
		cut = (len(s) - 1) / 2
	}
	return mean(s[cut : len(s)-cut])
}

// tailSteps are the percentiles a timing may be reported at, lowest first.
var tailSteps = []float64{0.90, 0.95, 0.99, 0.999}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: fewer and the "percentile" is a handful of outliers.
const minBeyond = 10

// supportedTail returns the highest percentile of tailSteps with at least
// minBeyond samples beyond it, or 0 when even p90 is unsupported.
func supportedTail(n int) float64 {
	best := 0.0
	for _, q := range tailSteps {
		if float64(n)*(1-q) >= minBeyond-1e-9 {
			best = q
		}
	}
	return best
}

// timing summarises one latency sample by the reporting rule: the median,
// the highest supported percentile, and the sample count.
type timing struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	TailQ float64 `json:"tail_q"`
	Tail  float64 `json:"tail"`
}

func summarize(xs []float64) timing {
	s := sortedCopy(xs)
	t := timing{N: len(s), P50: percentile(s, 0.5), TailQ: supportedTail(len(s))}
	if t.TailQ > 0 {
		t.Tail = percentile(s, t.TailQ)
	} else {
		t.Tail = math.NaN()
	}
	return t
}

// windowRates buckets event times into whole seconds of [start, start+n s)
// and returns the per-second sums of weight. Events outside the window are
// ignored.
func windowRates(start time.Time, seconds int, at []time.Time, weight []float64) []float64 {
	rates := make([]float64, seconds)
	for i, t := range at {
		d := t.Sub(start)
		if d < 0 {
			continue
		}
		sec := int(d / time.Second)
		if sec >= seconds {
			continue
		}
		rates[sec] += weight[i]
	}
	return rates
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
