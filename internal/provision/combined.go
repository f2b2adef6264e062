package provision

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"stacksync/internal/obs"
	"stacksync/internal/omq"
)

// Combined composes predictive and reactive provisioning exactly as §4.3
// deploys them: the predictive policy sets the baseline once per 15-minute
// period, the reactive policy re-checks every 5 minutes and overrides the
// baseline when observation diverges from prediction by more than τ. The
// Supervisor may call Desired as often as it likes (every second in the
// paper); period boundaries are tracked internally.
type Combined struct {
	sla        SLA
	predictive *PredictiveProvisioner
	reactive   *ReactiveProvisioner

	mu             sync.Mutex
	target         int
	nextPredictive time.Time
	nextReactive   time.Time
	// MispredictOffset shifts the instant the *predictor* is asked about,
	// implementing the Fig. 8(c–e) experiment where the predictor is fooled
	// into planning for hour 30's workload while hour 20 runs.
	mispredict time.Duration

	events *obs.EventLog
}

// Decision is one provisioning decision, as recordEvent writes it into the
// flight recorder (obs.EventProvisionDecision).
type Decision struct {
	Time time.Time `json:"time"`
	// Trigger is "predictive" (period baseline) or "reactive" (τ-divergence
	// correction).
	Trigger string `json:"trigger"`
	// Observed and Predicted are λ_obs and λ_pred in requests/second.
	Observed  float64 `json:"observed"`
	Predicted float64 `json:"predicted"`
	// ServiceTime is the mean service time S the decision used, in seconds
	// (the live introspection value when available, the SLA's S otherwise).
	ServiceTime float64 `json:"serviceTimeSec"`
	// Rho is the per-instance utilization ρ = λ_obs·S/η at decision time,
	// computed against the pre-decision fleet (η = Current, or 1 when the
	// fleet is empty).
	Rho float64 `json:"rho"`
	// Current is the fleet size observed when the decision was made.
	Current int `json:"current"`
	// Instances is the instance target the decision set.
	Instances int `json:"instances"`
}

var _ omq.Provisioner = (*Combined)(nil)

// NewCombined wires the two policies together.
func NewCombined(sla SLA, predictive *PredictiveProvisioner) *Combined {
	c := &Combined{
		sla:        sla,
		predictive: predictive,
	}
	c.reactive = NewReactive(sla, Tau1, Tau2, c.predictedRate)
	return c
}

// SetEventLog wires the provisioner (and its composed policies) to a flight
// recorder: every decision — including reactive checks that found no
// divergence (trigger "none") — is appended as an obs.EventProvisionDecision.
func (c *Combined) SetEventLog(l *obs.EventLog) {
	c.mu.Lock()
	c.events = l
	c.mu.Unlock()
	c.predictive.SetEventLog(l)
	c.reactive.SetEventLog(l)
}

// SetMispredictionOffset makes the predictor plan for now+offset instead of
// now — the controlled misprediction of §5.3.3.
func (c *Combined) SetMispredictionOffset(offset time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mispredict = offset
}

// MispredictOffset returns the configured misprediction offset.
func (c *Combined) MispredictOffset() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mispredict
}

func (c *Combined) predictedRate(now time.Time) float64 {
	c.mu.Lock()
	off := c.mispredict
	c.mu.Unlock()
	return c.predictive.PredictedRate(now.Add(off))
}

// decisionFor assembles a fully populated Decision from the introspection
// snapshot. S comes from live introspection when present, the SLA otherwise;
// ρ = λ_obs·S/η against the pre-decision fleet.
func decisionFor(now time.Time, trigger string, sla SLA, info omq.ObjectInfo, predicted float64, target int) Decision {
	s := sla.S.Seconds()
	if info.MeanServiceTime > 0 {
		s = info.MeanServiceTime.Seconds()
	}
	eta := info.Instances
	if eta <= 0 {
		eta = 1
	}
	return Decision{
		Time:        now,
		Trigger:     trigger,
		Observed:    info.ArrivalRate,
		Predicted:   predicted,
		ServiceTime: s,
		Rho:         info.ArrivalRate * s / float64(eta),
		Current:     info.Instances,
		Instances:   target,
	}
}

// recordEvent mirrors a decision into the flight recorder. Nil-safe.
func recordEvent(l *obs.EventLog, source string, d Decision) {
	l.Append(obs.Event{
		At:      d.Time,
		Kind:    obs.EventProvisionDecision,
		Source:  source,
		Summary: fmt.Sprintf("%s: λ_obs=%.2f/s λ_pred=%.2f/s ρ=%.2f → %d instances", d.Trigger, d.Observed, d.Predicted, d.Rho, d.Instances),
		Fields: map[string]string{
			"trigger":   d.Trigger,
			"observed":  strconv.FormatFloat(d.Observed, 'g', -1, 64),
			"predicted": strconv.FormatFloat(d.Predicted, 'g', -1, 64),
			"service":   strconv.FormatFloat(d.ServiceTime, 'g', -1, 64),
			"rho":       strconv.FormatFloat(d.Rho, 'g', -1, 64),
			"current":   strconv.Itoa(d.Current),
			"target":    strconv.Itoa(d.Instances),
		},
	})
}

// Desired implements omq.Provisioner.
func (c *Combined) Desired(now time.Time, info omq.ObjectInfo) int {
	c.predictive.Observe(now, info.ArrivalRate)

	c.mu.Lock()
	defer c.mu.Unlock()

	if !now.Before(c.nextPredictive) {
		pred := c.predictive.PredictedRate(now.Add(c.mispredict))
		c.target = InstancesForRate(c.sla, pred)
		c.nextPredictive = now.Truncate(PeriodDuration).Add(PeriodDuration)
		c.nextReactive = now.Add(ReactiveInterval)
		recordEvent(c.events, "provision.combined",
			decisionFor(now, "predictive", c.sla, info, pred, c.target))
		return c.target
	}
	if !now.Before(c.nextReactive) {
		c.nextReactive = now.Add(ReactiveInterval)
		pred := c.predictive.PredictedRate(now.Add(c.mispredict))
		events := c.events
		c.mu.Unlock()
		n, corrected := c.reactive.Check(now, info.ArrivalRate)
		c.mu.Lock()
		if corrected {
			c.target = n
			recordEvent(events, "provision.combined",
				decisionFor(now, "reactive", c.sla, info, pred, n))
		} else {
			// The check ran and endorsed the standing target: record the
			// non-decision (trigger "none").
			recordEvent(events, "provision.combined",
				decisionFor(now, "none", c.sla, info, pred, c.target))
		}
	}
	return c.target
}

// Target returns the current instance target without re-evaluating.
func (c *Combined) Target() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.target
}
