package obs

import (
	"sync"
	"time"
)

// EventKind classifies flight-recorder entries. The taxonomy covers the
// elasticity loop end to end: provisioning decisions and forecasts, the
// Supervisor's enforcement actions, crash/respawn/election lifecycle, and
// injected faults.
type EventKind string

const (
	// EventProvisionDecision is one provisioning decision (trigger
	// predictive | reactive | none, with λ_obs, λ_pred, S, ρ, instances).
	EventProvisionDecision EventKind = "provision.decision"
	// EventProvisionForecast is a predictive-slot rollover: the observed
	// per-slot peak folded into the forecast history.
	EventProvisionForecast EventKind = "provision.forecast"
	// EventSupervisorScale is a Supervisor enforcement that changed the
	// fleet size on purpose (scale up or down).
	EventSupervisorScale EventKind = "supervisor.scale"
	// EventSupervisorRespawn is a Supervisor repair: the fleet shrank below
	// the standing target (a crash) and was grown back.
	EventSupervisorRespawn EventKind = "supervisor.respawn"
	// EventElectionWon marks a SupervisorGuard winning the leader election
	// and starting a replacement supervisor.
	EventElectionWon EventKind = "election.won"
	// EventInstanceKill is an injected instance crash (KillLocal).
	EventInstanceKill EventKind = "instance.kill"
	// EventInstanceDrain is an orderly instance stop: its in-flight call
	// finished before it left (a scale-in, or the node closing).
	EventInstanceDrain EventKind = "instance.drain"
	// EventFaultInjected is one fired fault-plan decision.
	EventFaultInjected EventKind = "fault.injected"
)

// Event is one flight-recorder entry. Seq is assigned by the log and grows
// monotonically across overwrites, so readers can detect gaps.
type Event struct {
	Seq     uint64            `json:"seq"`
	At      time.Time         `json:"at"`
	Kind    EventKind         `json:"kind"`
	Source  string            `json:"source,omitempty"`
	Summary string            `json:"summary"`
	Fields  map[string]string `json:"fields,omitempty"`
}

// EventLog is the bounded flight recorder: a ring of the most recent events.
// All methods are safe for concurrent use and are no-ops on a nil receiver,
// so instrumented components need no guards when no recorder is wired in.
type EventLog struct {
	mu      sync.Mutex
	buf     []Event
	start   int
	n       int
	seq     uint64
	dropped uint64
}

// DefaultEventLogCapacity is used when NewEventLog is given a non-positive
// capacity.
const DefaultEventLogCapacity = 1024

// NewEventLog returns a recorder retaining the most recent capacity events.
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventLogCapacity
	}
	return &EventLog{buf: make([]Event, capacity)}
}

// Append records an event, stamping its sequence number, and returns that
// number. The oldest event is overwritten when the ring is full. Nil-safe.
func (l *EventLog) Append(e Event) uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	e.Seq = l.seq
	if l.n < len(l.buf) {
		l.buf[(l.start+l.n)%len(l.buf)] = e
		l.n++
	} else {
		l.buf[l.start] = e
		l.start = (l.start + 1) % len(l.buf)
		l.dropped++
	}
	return e.Seq
}

// Len returns the number of retained events.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Seq returns the sequence number of the newest event (0 when empty).
func (l *EventLog) Seq() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Dropped returns how many events were overwritten.
func (l *EventLog) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Tail returns the newest n events, oldest first. n <= 0 returns everything
// retained.
func (l *EventLog) Tail(n int) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= 0 || n > l.n {
		n = l.n
	}
	out := make([]Event, 0, n)
	for i := l.n - n; i < l.n; i++ {
		out = append(out, l.buf[(l.start+i)%len(l.buf)])
	}
	return out
}

// Since returns the retained events with sequence numbers greater than seq,
// oldest first.
func (l *EventLog) Since(seq uint64) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0)
	for i := 0; i < l.n; i++ {
		e := l.buf[(l.start+i)%len(l.buf)]
		if e.Seq > seq {
			out = append(out, e)
		}
	}
	return out
}
