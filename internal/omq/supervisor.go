package omq

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"stacksync/internal/obs"
)

// Provisioner is the extensible hook of the programmatic-elasticity
// framework (paper Fig. 3): given the current introspection snapshot it
// proposes the number of server instances needed. Predictive and reactive
// policies (paper §4.3) implement it in internal/provision.
type Provisioner interface {
	Desired(now time.Time, info ObjectInfo) int
}

// ProvisionerFunc adapts a function to the Provisioner interface.
type ProvisionerFunc func(now time.Time, info ObjectInfo) int

// Desired invokes the function.
func (f ProvisionerFunc) Desired(now time.Time, info ObjectInfo) int { return f(now, info) }

// FixedProvisioner always requests n instances — the no-elasticity baseline.
type FixedProvisioner int

// Desired returns the fixed instance count.
func (f FixedProvisioner) Desired(time.Time, ObjectInfo) int { return int(f) }

// SupervisorConfig parameterizes a Supervisor.
type SupervisorConfig struct {
	// OID is the managed object id (e.g. "syncservice").
	OID string
	// Provisioner proposes instance counts. Required.
	Provisioner Provisioner
	// CheckEvery is the enforcement period; the paper's Supervisor checks
	// instances every second (§3.4 / §5.3.4). Default 1s.
	CheckEvery time.Duration
	// MinInstances floors the instance count (default 1) so the service
	// never scales to zero.
	MinInstances int
	// MaxInstances caps the fleet (default 64); a runaway policy cannot
	// exhaust the node pool.
	MaxInstances int
}

func (c *SupervisorConfig) applyDefaults() {
	if c.CheckEvery <= 0 {
		c.CheckEvery = time.Second
	}
	if c.MinInstances <= 0 {
		c.MinInstances = 1
	}
	if c.MaxInstances <= 0 {
		c.MaxInstances = 64
	}
}

// inventoryWindow bounds the multicall collecting RemoteBroker inventories
// for a scale-in. The multicall holds the check for the whole window, so it
// takes half the check period, capped at 200 ms.
func (c *SupervisorConfig) inventoryWindow() time.Duration {
	return min(c.CheckEvery/2, 200*time.Millisecond)
}

// SupervisorOID is the object id the supervisor itself binds under so that
// brokers can health-check it (leader-election failover, §3.4).
const SupervisorOID = "omq.supervisor"

// Supervisor is the centralized Master of the provisioning framework: it
// periodically introspects the managed object's queue, consults the
// Provisioner and converges the instance count by spawning on / shutting
// down RemoteBrokers. It also respawns crashed instances: a crash shows up
// as current < desired and is repaired on the next one-second check.
type Supervisor struct {
	broker *Broker
	cfg    SupervisorConfig

	rbrokers *Proxy
	selfBind *BoundObject

	// fleet gauges: the scaling path's current and target instance counts,
	// scraped like any other series (omq_instances{oid},
	// omq_instances_target{oid}).
	gCurrent *obs.Gauge
	gTarget  *obs.Gauge

	mu          sync.Mutex
	current     int
	lastDesired int
	history     []ScaleEvent

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// ScaleHistoryCap bounds the retained scale events: one supervisor checking
// every second records at most ~68 minutes of back-to-back actions before
// the oldest fall off, keeping week-long soaks flat in memory.
const ScaleHistoryCap = 4096

// ScaleEvent records one enforcement action, for experiments and tests.
type ScaleEvent struct {
	Time    time.Time `json:"time"`
	Desired int       `json:"desired"`
	Before  int       `json:"before"`
	After   int       `json:"after"`
}

// supervisorAPI is the supervisor's own remote surface.
type supervisorAPI struct {
	brokerID string
}

// Ping answers health checks with the supervisor's broker identity.
func (s *supervisorAPI) Ping(struct{}) string { return s.brokerID }

// StartSupervisor launches the enforcement loop. Stop it with Stop.
func StartSupervisor(b *Broker, cfg SupervisorConfig) (*Supervisor, error) {
	cfg.applyDefaults()
	s := &Supervisor{
		broker:   b,
		cfg:      cfg,
		rbrokers: b.Lookup(RemoteBrokerGroup, WithTimeout(2*time.Second), WithRetries(1)),
		gCurrent: b.reg.Gauge("omq_instances", "oid", cfg.OID),
		gTarget:  b.reg.Gauge("omq_instances_target", "oid", cfg.OID),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	bind, err := b.Bind(SupervisorOID, &supervisorAPI{brokerID: b.id})
	if err != nil {
		return nil, err
	}
	s.selfBind = bind
	go s.loop()
	return s, nil
}

// Stop terminates the enforcement loop and unbinds the health endpoint.
func (s *Supervisor) Stop() {
	s.stopOnce.Do(func() {
		close(s.stop)
		<-s.done
		_ = s.selfBind.Unbind()
	})
}

// History returns the recorded scale events (the most recent
// ScaleHistoryCap of them).
func (s *Supervisor) History() []ScaleEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ScaleEvent, len(s.history))
	copy(out, s.history)
	return out
}

func (s *Supervisor) loop() {
	defer close(s.done)
	for {
		select {
		case <-s.stop:
			return
		case <-s.broker.clk.After(s.cfg.CheckEvery):
			s.enforceOnce()
		}
	}
}

// enforceOnce runs one check-and-converge cycle.
func (s *Supervisor) enforceOnce() {
	info, err := s.broker.ObjectInfo(s.cfg.OID)
	if err != nil {
		return
	}
	now := s.broker.clk.Now()
	desired := s.cfg.Provisioner.Desired(now, info)
	if desired < s.cfg.MinInstances {
		desired = s.cfg.MinInstances
	}
	if desired > s.cfg.MaxInstances {
		desired = s.cfg.MaxInstances
	}
	current := info.Instances
	switch {
	case desired > current:
		var reply SpawnReply
		if err := s.rbrokers.Call("Spawn", &reply, SpawnRequest{OID: s.cfg.OID, N: desired - current}); err != nil {
			return
		}
	case desired < current:
		s.shrink(current - desired)
	}
	after, _ := s.broker.ObjectInfo(s.cfg.OID)
	s.mu.Lock()
	s.current = after.Instances
	lastDesired := s.lastDesired
	s.lastDesired = desired
	s.history = append(s.history, ScaleEvent{Time: now, Desired: desired, Before: current, After: after.Instances})
	if len(s.history) > ScaleHistoryCap {
		n := copy(s.history, s.history[len(s.history)-ScaleHistoryCap:])
		s.history = s.history[:n]
	}
	s.mu.Unlock()
	s.gCurrent.Set(float64(after.Instances))
	s.gTarget.Set(float64(desired))
	if desired != current {
		// A grow back to an unchanged target repairs a crash (the fleet
		// shrank underneath the Supervisor); anything else is a scale action.
		kind := obs.EventSupervisorScale
		if desired > current && desired == lastDesired {
			kind = obs.EventSupervisorRespawn
		}
		s.broker.events.Append(obs.Event{
			At:      now,
			Kind:    kind,
			Source:  "omq.supervisor",
			Summary: fmt.Sprintf("%s: %d → %d instances (target %d)", s.cfg.OID, current, after.Instances, desired),
			Fields: map[string]string{
				"oid":     s.cfg.OID,
				"before":  strconv.Itoa(current),
				"after":   strconv.Itoa(after.Instances),
				"desired": strconv.Itoa(desired),
			},
		})
	}
}

func (s *Supervisor) shrink(n int) {
	replies, err := s.rbrokers.MultiCall("ListInstances", s.cfg.inventoryWindow(), InventoryQuery{OID: s.cfg.OID})
	if err != nil {
		return
	}
	remaining := n
	for _, r := range replies {
		if remaining == 0 {
			return
		}
		var inv Inventory
		if err := r.Decode(&inv); err != nil {
			continue
		}
		have := inv.Counts[s.cfg.OID]
		if have == 0 {
			continue
		}
		take := remaining
		if take > have {
			take = have
		}
		var rep ShutdownReply
		if err := s.rbrokers.Call("Shutdown", &rep, ShutdownRequest{Target: inv.BrokerID, OID: s.cfg.OID, N: take}); err != nil {
			continue
		}
		remaining -= rep.Stopped
	}
}

// --- supervisor failover -------------------------------------------------

// SupervisorGuard runs on every node hosting a RemoteBroker: it pings the
// supervisor periodically and, when the supervisor is unreachable, runs a
// leader election over broker identities. The winning broker starts a
// replacement supervisor (paper §3.4).
type SupervisorGuard struct {
	broker   *Broker
	make     func() (*Supervisor, error)
	interval time.Duration

	mu       sync.Mutex
	elected  *Supervisor
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewSupervisorGuard starts the watchdog. makeSupervisor is invoked at most
// once, when this guard wins an election.
func NewSupervisorGuard(b *Broker, makeSupervisor func() (*Supervisor, error), interval time.Duration) *SupervisorGuard {
	if interval <= 0 {
		interval = time.Second
	}
	g := &SupervisorGuard{
		broker:   b,
		make:     makeSupervisor,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go g.loop()
	return g
}

// Stop halts the guard and any supervisor it elected.
func (g *SupervisorGuard) Stop() {
	g.stopOnce.Do(func() {
		close(g.stop)
		<-g.done
		g.mu.Lock()
		sup := g.elected
		g.mu.Unlock()
		if sup != nil {
			sup.Stop()
		}
	})
}

// Elected returns the supervisor this guard started, if any.
func (g *SupervisorGuard) Elected() *Supervisor {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.elected
}

func (g *SupervisorGuard) loop() {
	defer close(g.done)
	sup := g.broker.Lookup(SupervisorOID, WithTimeout(500*time.Millisecond), WithRetries(1))
	peers := g.broker.Lookup(RemoteBrokerGroup, WithTimeout(500*time.Millisecond), WithRetries(1))
	for {
		select {
		case <-g.stop:
			return
		case <-g.broker.clk.After(g.interval):
		}
		g.mu.Lock()
		already := g.elected != nil
		g.mu.Unlock()
		if already {
			continue
		}
		var id string
		if err := sup.Call("Ping", &id, struct{}{}); err == nil {
			continue // supervisor healthy
		}
		// Election: collect the ids of all live RemoteBrokers; the lowest
		// identity wins and starts a replacement supervisor.
		replies, err := peers.MultiCall("ListInstances", 300*time.Millisecond, InventoryQuery{})
		if err != nil {
			continue
		}
		lowest := g.broker.id
		for _, r := range replies {
			var inv Inventory
			if err := r.Decode(&inv); err != nil {
				continue
			}
			if inv.BrokerID < lowest {
				lowest = inv.BrokerID
			}
		}
		if lowest != g.broker.id {
			continue // someone else wins
		}
		newSup, err := g.make()
		if err != nil {
			continue
		}
		g.broker.events.Append(obs.Event{
			At:      g.broker.clk.Now(),
			Kind:    obs.EventElectionWon,
			Source:  "omq.supervisorguard",
			Summary: fmt.Sprintf("broker %s won the election and started a replacement supervisor", g.broker.id),
			Fields:  map[string]string{"broker": g.broker.id},
		})
		g.mu.Lock()
		g.elected = newSup
		g.mu.Unlock()
	}
}
