package bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"stacksync/internal/metrics"
	"stacksync/internal/omq"
	"stacksync/internal/provision"
	"stacksync/internal/trace"
)

// The Fig. 8 experiments replay a full day of the UB1 workload — hundreds of
// thousands of commit requests — against the real provisioning policies. A
// wall-clock replay would take 24 hours, so the SyncService fleet is driven
// as a discrete-event G/G/η simulation: arrivals follow the trace's rate,
// each instance is a G/G/1 server with the Table 3 service-time
// distribution, and the Combined provisioner (the identical code the live
// Supervisor runs) decides the instance count each simulated second.

// SimConfig parameterizes an auto-scaling replay.
type SimConfig struct {
	SLA provision.SLA
	// History is the arrival trace that seeds the predictive provisioner
	// (the UB1 week).
	History *trace.ArrivalTrace
	// Workload is the replayed arrival trace (UB1 day 8, or an hour slice).
	Workload *trace.ArrivalTrace
	// Percentile of the per-slot history used as λ_pred (default 0.95).
	Percentile float64
	// MispredictOffset fools the predictor (Fig. 8c–e); zero disables.
	MispredictOffset time.Duration
	// Seed fixes arrival and service sampling.
	Seed int64
	// MaxInstances caps the fleet (safety bound; default 64).
	MaxInstances int
}

func (c *SimConfig) applyDefaults() {
	if c.Percentile <= 0 {
		c.Percentile = 0.95
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxInstances <= 0 {
		c.MaxInstances = 64
	}
}

// MinuteStat summarizes one simulated minute.
type MinuteStat struct {
	Minute     int     `json:"minute"`
	RatePerMin float64 `json:"ratePerMin"` // arrivals per minute (the Fig. 8a workload curve)
	Instances  int     `json:"instances"`  // fleet size at minute end
	MaxRespMs  float64 `json:"maxRespMs"`
	P95RespMs  float64 `json:"p95RespMs"`
	Violations int     `json:"violations"`     // responses above the SLA
	Expected   float64 `json:"expectedPerMin"` // λ_pred the provisioner used
}

// SimResult is the replay outcome.
type SimResult struct {
	Minutes []MinuteStat `json:"minutes"`
	// Responses collects every response time (seconds).
	Responses *metrics.Recorder `json:"-"`
	SLA       provision.SLA     `json:"-"`
}

// MaxInstances returns the largest fleet size used.
func (r *SimResult) MaxInstances() int {
	maxN := 0
	for _, m := range r.Minutes {
		if m.Instances > maxN {
			maxN = m.Instances
		}
	}
	return maxN
}

// ViolationFraction is the share of requests above the SLA.
func (r *SimResult) ViolationFraction() float64 {
	total, bad := 0, 0
	for _, m := range r.Minutes {
		bad += m.Violations
	}
	total = r.Responses.Count()
	if total == 0 {
		return 0
	}
	return float64(bad) / float64(total)
}

// RunAutoScaleSim replays the workload.
func RunAutoScaleSim(cfg SimConfig) *SimResult {
	cfg.applyDefaults()
	r := rand.New(rand.NewSource(cfg.Seed))

	predictive := provision.NewPredictive(cfg.SLA, cfg.Percentile, 0)
	if cfg.History != nil {
		// Per-slot peaks: the predictor provisions for the peak demand of
		// the next period (§4.3.1), not its mean.
		predictive.LoadHistory(cfg.History.Start, cfg.History.PerPeriodPeaks(provision.PeriodDuration))
	}
	combined := provision.NewCombined(cfg.SLA, predictive)
	if cfg.MispredictOffset != 0 {
		combined.SetMispredictionOffset(cfg.MispredictOffset)
	}

	sd := math.Sqrt(cfg.SLA.VarService)
	meanSvc := cfg.SLA.S.Seconds()
	sampleService := func() float64 {
		s := meanSvc + r.NormFloat64()*sd
		if s < 0.005 {
			s = 0.005
		}
		return s
	}

	res := &SimResult{Responses: metrics.NewRecorder(), SLA: cfg.SLA}
	totalSeconds := int(cfg.Workload.Duration() / time.Second)
	servers := make([]float64, 1) // nextFree time (seconds since start)
	var arrivalWindow [60]int     // arrivals per second, ring buffer
	arrivals := make([]float64, 0, 256)

	var minuteResponses []float64
	minuteIdx := 0
	var minuteArrivals int
	var lastExpected float64

	slaSec := cfg.SLA.D.Seconds()
	for sec := 0; sec < totalSeconds; sec++ {
		now := cfg.Workload.Start.Add(time.Duration(sec) * time.Second)
		rate := cfg.Workload.RateAt(now)
		// Poisson arrivals within this second, uniformly spread.
		n := poissonSim(r, rate)
		arrivalWindow[sec%60] = n
		minuteArrivals += n
		// Arrivals must be processed in time order: assigning a late
		// arrival to a server before an earlier one fabricates idle-wait
		// and wrecks work conservation.
		arrivals := arrivals[:0]
		for i := 0; i < n; i++ {
			arrivals = append(arrivals, float64(sec)+r.Float64())
		}
		sortFloats(arrivals)
		for _, at := range arrivals {
			// Earliest-free server takes the request (the queue hands each
			// message to the first idle instance).
			best := 0
			for s := 1; s < len(servers); s++ {
				if servers[s] < servers[best] {
					best = s
				}
			}
			startSvc := at
			if servers[best] > startSvc {
				startSvc = servers[best]
			}
			svc := sampleService()
			servers[best] = startSvc + svc
			resp := startSvc + svc - at
			res.Responses.ObserveSeconds(resp)
			minuteResponses = append(minuteResponses, resp)
		}

		// One provisioning check per simulated second, like the live
		// Supervisor. λ_obs is the 60-second mean rate at the queue.
		var sum int
		for _, v := range arrivalWindow {
			sum += v
		}
		observed := float64(sum) / 60
		if sec < 60 {
			observed = float64(sum) / float64(sec+1)
		}
		desired := combined.Desired(now, omq.ObjectInfo{ArrivalRate: observed, Instances: len(servers)})
		if desired < 1 {
			desired = 1
		}
		if desired > cfg.MaxInstances {
			desired = cfg.MaxInstances
		}
		for len(servers) < desired {
			// A freshly spawned instance is idle immediately; spawn latency
			// shows up as the response-time spikes around scale events.
			servers = append(servers, float64(sec)+1)
		}
		for len(servers) > desired {
			servers = servers[:len(servers)-1]
		}
		lastExpected = combinedPredicted(combined, predictive, now)

		if (sec+1)%60 == 0 {
			stat := MinuteStat{
				Minute:     minuteIdx,
				RatePerMin: float64(minuteArrivals),
				Instances:  len(servers),
				Expected:   lastExpected * 60,
			}
			if len(minuteResponses) > 0 {
				stat.MaxRespMs = metrics.Percentile(minuteResponses, 1) * 1000
				stat.P95RespMs = metrics.Percentile(minuteResponses, 0.95) * 1000
				for _, v := range minuteResponses {
					if v > slaSec {
						stat.Violations++
					}
				}
			}
			res.Minutes = append(res.Minutes, stat)
			minuteResponses = minuteResponses[:0]
			minuteArrivals = 0
			minuteIdx++
		}
	}
	return res
}

func combinedPredicted(c *provision.Combined, p *provision.PredictiveProvisioner, now time.Time) float64 {
	// The combined provisioner applies its misprediction offset internally;
	// reproduce it for reporting.
	return p.PredictedRate(now.Add(c.MispredictOffset()))
}

// sortFloats is a small insertion sort: arrival batches are tiny and mostly
// random, and this avoids sort.Float64s allocations in the hot loop.
func sortFloats(a []float64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func poissonSim(r *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	// For large means use a normal approximation to stay O(1).
	if mean > 30 {
		n := int(mean + r.NormFloat64()*math.Sqrt(mean) + 0.5)
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// PrintFig8a writes the workload-vs-instances series (sampled every few
// minutes to keep the table readable).
func (r *SimResult) PrintFig8a(w io.Writer, every int) {
	if every <= 0 {
		every = 15
	}
	fmt.Fprintln(w, "Fig 8(a) — day-8 workload and provisioned instances")
	fmt.Fprintf(w, "%8s %14s %10s\n", "minute", "req/min", "instances")
	for i, m := range r.Minutes {
		if i%every != 0 {
			continue
		}
		fmt.Fprintf(w, "%8d %14.0f %10d\n", m.Minute, m.RatePerMin, m.Instances)
	}
	fmt.Fprintf(w, "peak demand: %.0f req/min, max instances: %d\n", r.peakRate(), r.MaxInstances())
}

func (r *SimResult) peakRate() float64 {
	var peak float64
	for _, m := range r.Minutes {
		if m.RatePerMin > peak {
			peak = m.RatePerMin
		}
	}
	return peak
}

// PrintFig8b writes the response-time series.
func (r *SimResult) PrintFig8b(w io.Writer, every int) {
	if every <= 0 {
		every = 15
	}
	fmt.Fprintf(w, "Fig 8(b) — response times under auto-scaling (SLA %.0f ms)\n", r.SLA.D.Seconds()*1000)
	fmt.Fprintf(w, "%8s %10s %10s %11s\n", "minute", "p95 (ms)", "max (ms)", "violations")
	for i, m := range r.Minutes {
		if i%every != 0 {
			continue
		}
		fmt.Fprintf(w, "%8d %10.1f %10.1f %11d\n", m.Minute, m.P95RespMs, m.MaxRespMs, m.Violations)
	}
	fmt.Fprintf(w, "overall: %d requests, %.4f%% above SLA, p99 %.1f ms\n",
		r.Responses.Count(), 100*r.ViolationFraction(), r.Responses.Percentile(0.99)*1000)
}

// PrintFig8cde writes the misprediction experiment: expected vs observed
// arrivals (8c), instances (8d) and response times (8e) per minute.
func (r *SimResult) PrintFig8cde(w io.Writer) {
	fmt.Fprintln(w, "Fig 8(c,d,e) — misprediction corrected by reactive provisioning")
	fmt.Fprintf(w, "%8s %14s %14s %10s %10s %10s\n",
		"minute", "expected/min", "observed/min", "instances", "p95 (ms)", "max (ms)")
	for _, m := range r.Minutes {
		fmt.Fprintf(w, "%8d %14.0f %14.0f %10d %10.1f %10.1f\n",
			m.Minute, m.Expected, m.RatePerMin, m.Instances, m.P95RespMs, m.MaxRespMs)
	}
}
