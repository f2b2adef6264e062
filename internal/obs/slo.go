package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// SLOConfig declares one latency service-level objective: a fraction
// Objective of requests must complete within Target. The paper's SLA
// (Table 3) is d = 450 ms; the tracker generalizes it to a fractional
// objective so error budgets can be computed.
type SLOConfig struct {
	// Target is the per-request latency objective (the SLA's d).
	Target time.Duration
	// Objective is the required fraction of requests within Target, e.g.
	// 0.99. Values outside (0, 1] are clamped to 0.99.
	Objective float64
}

// SLOTracker counts requests against a latency SLO: how many were observed
// and how many finished within target. Safe for concurrent use.
type SLOTracker struct {
	cfg   SLOConfig
	good  atomic.Uint64
	total atomic.Uint64
}

// NewSLOTracker builds a tracker for cfg.
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	if cfg.Objective <= 0 || cfg.Objective > 1 {
		cfg.Objective = 0.99
	}
	return &SLOTracker{cfg: cfg}
}

// Observe records one request latency.
func (t *SLOTracker) Observe(d time.Duration) {
	t.total.Add(1)
	if d <= t.cfg.Target {
		t.good.Add(1)
	}
}

// Attainment returns the cumulative fraction of requests within target
// (1 when nothing was observed yet — an empty window has spent no budget).
func (t *SLOTracker) Attainment() float64 {
	// good before total: Observe bumps total first, so good ≤ total here.
	good := t.good.Load()
	total := t.total.Load()
	if total == 0 {
		return 1
	}
	return float64(good) / float64(total)
}

// BurnRate returns the cumulative error-budget burn rate: the ratio of the
// observed miss fraction to the allowed miss fraction (1−Objective). Burn 1
// spends the budget exactly as fast as the objective allows; burn 2 exhausts
// it in half the period.
func (t *SLOTracker) BurnRate() float64 {
	allowed := 1 - t.cfg.Objective
	missed := 1 - t.Attainment()
	if allowed <= 0 {
		if missed > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return missed / allowed
}
