package omq

import (
	"fmt"
	"sync"

	"stacksync/internal/obs"
)

// RemoteBrokerGroup is the object id all RemoteBrokers bind under. Unicast
// calls land on an arbitrary broker (queue load balancing picks one);
// multicast calls reach every broker — exactly how the paper's Supervisor
// talks to its RemoteBroker slaves (§3.3).
const RemoteBrokerGroup = "omq.rbroker"

// Factory creates a fresh server-object implementation for an object id.
// RemoteBrokers use factories to spawn instances on demand.
type Factory func() (interface{}, error)

// InstanceFactory is a Factory that learns the identity its instance will
// run under (the spawned child broker's id), so it can attach state keyed by
// that id — deploy stamps each SyncService's spans with it.
type InstanceFactory func(instanceID string) (interface{}, error)

// RemoteBroker is the ObjectMQ server agent that launches and shuts down
// server objects on its node at the Supervisor's request.
type RemoteBroker struct {
	broker *Broker

	mu        sync.Mutex
	factories map[string]InstanceFactory
	instances map[string][]*BoundObject // spawned, each on its own child broker
	closed    bool

	self *BoundObject
}

// NewRemoteBroker binds a broker into the RemoteBroker group so that a
// Supervisor can manage server objects on it.
func NewRemoteBroker(b *Broker) (*RemoteBroker, error) {
	rb := &RemoteBroker{
		broker:    b,
		factories: make(map[string]InstanceFactory),
		instances: make(map[string][]*BoundObject),
	}
	bo, err := b.Bind(RemoteBrokerGroup, &remoteBrokerAPI{rb: rb})
	if err != nil {
		return nil, fmt.Errorf("omq: bind remote broker: %w", err)
	}
	rb.self = bo
	return rb, nil
}

// RegisterFactory makes oid spawnable on this node.
func (rb *RemoteBroker) RegisterFactory(oid string, f Factory) {
	rb.RegisterInstanceFactory(oid, func(string) (interface{}, error) { return f() })
}

// RegisterInstanceFactory makes oid spawnable with identity-aware
// construction: the factory receives the instance id its object will serve
// under.
func (rb *RemoteBroker) RegisterInstanceFactory(oid string, f InstanceFactory) {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	rb.factories[oid] = f
}

// BrokerID returns the identity of the underlying ObjectMQ broker.
func (rb *RemoteBroker) BrokerID() string { return rb.broker.id }

// InstanceCount reports how many local instances of oid are running.
func (rb *RemoteBroker) InstanceCount(oid string) int {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return len(rb.instances[oid])
}

// InstanceIDs lists the ids of the local instances of oid, oldest first.
func (rb *RemoteBroker) InstanceIDs(oid string) []string {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	ids := make([]string, len(rb.instances[oid]))
	for i, bo := range rb.instances[oid] {
		ids[i] = bo.ownedBroker.id
	}
	return ids
}

// SpawnLocal starts n instances of oid on this node directly (without going
// through messaging). The Supervisor path uses the remote API instead.
func (rb *RemoteBroker) SpawnLocal(oid string, n int) (int, error) {
	rb.mu.Lock()
	factory, ok := rb.factories[oid]
	closed := rb.closed
	rb.mu.Unlock()
	if closed {
		return 0, ErrClosed
	}
	if !ok {
		return 0, fmt.Errorf("omq: no factory for %q on broker %s", oid, rb.broker.id)
	}
	started := 0
	for i := 0; i < n; i++ {
		// Each instance needs its own Broker identity for a distinct private
		// multicast queue, but the paper's RemoteBroker hosts many objects on
		// one broker connection. Our Bind already allocates a unique private
		// queue per BoundObject, so instances can share rb.broker — except
		// that Bind refuses duplicate oids per broker. Spawn therefore binds
		// through a lightweight child broker on the same MQ, whose id doubles
		// as the instance identity. The child shares the node's registry,
		// event log and span sink; its spans carry its id.
		id := newID()
		child, err := NewBroker(rb.broker.mq, WithID(id), WithBrokerClock(rb.broker.clk),
			WithTracer(rb.broker.tracer.ForInstance(id)), WithRegistry(rb.broker.reg),
			WithEventLog(rb.broker.events))
		if err != nil {
			return started, fmt.Errorf("omq: spawn child broker: %w", err)
		}
		impl, err := factory(child.id)
		if err != nil {
			_ = child.Close()
			return started, fmt.Errorf("omq: factory %q: %w", oid, err)
		}
		bo, err := child.Bind(oid, impl)
		if err != nil {
			_ = child.Close()
			return started, fmt.Errorf("omq: spawn bind %q: %w", oid, err)
		}
		bo.ownedBroker = child
		rb.mu.Lock()
		rb.instances[oid] = append(rb.instances[oid], bo)
		rb.mu.Unlock()
		started++
	}
	return started, nil
}

// ShutdownLocal stops up to n instances of oid on this node, returning how
// many were stopped.
func (rb *RemoteBroker) ShutdownLocal(oid string, n int) int {
	rb.mu.Lock()
	list := rb.instances[oid]
	take := n
	if take > len(list) {
		take = len(list)
	}
	victims := list[len(list)-take:]
	rb.instances[oid] = list[:len(list)-take]
	rb.mu.Unlock()
	for _, bo := range victims {
		rb.stopInstance(oid, bo)
	}
	return take
}

// stopInstance drains one instance: Unbind waits for the in-flight call to
// finish, then the owned broker is released and the drain recorded.
func (rb *RemoteBroker) stopInstance(oid string, bo *BoundObject) {
	_ = bo.Unbind()
	_ = bo.ownedBroker.Close()
	rb.recordStop(obs.EventInstanceDrain, "drained", oid, bo.ownedBroker.id)
}

// recordStop appends an instance's end, a drain or a kill, to the flight
// recorder.
func (rb *RemoteBroker) recordStop(kind obs.EventKind, verb, oid, id string) {
	rb.broker.events.Append(obs.Event{
		At:      rb.broker.clk.Now(),
		Kind:    kind,
		Source:  "omq.rbroker",
		Summary: fmt.Sprintf("%s one %s instance (%s) on broker %s", verb, oid, id, rb.broker.id),
		Fields:  map[string]string{"oid": oid, "broker": rb.broker.id, "instance": id},
	})
}

// KillLocal abruptly terminates one instance of oid without orderly
// unbinding its in-flight work first — used by fault-injection tests and the
// Fig. 8(f) experiment to emulate a crash. Returns the dead instance's id
// ("" when there was nothing to kill).
func (rb *RemoteBroker) KillLocal(oid string) string {
	rb.mu.Lock()
	list := rb.instances[oid]
	if len(list) == 0 {
		rb.mu.Unlock()
		return ""
	}
	bo := list[len(list)-1]
	rb.instances[oid] = list[:len(list)-1]
	rb.mu.Unlock()
	id := bo.ownedBroker.id
	rb.recordStop(obs.EventInstanceKill, "killed", oid, id)
	// Closing the owned broker cancels subscriptions; the MQ requeues any
	// unacked call, which is precisely the crash behaviour §3.4 describes.
	_ = bo.ownedBroker.Close()
	return id
}

// Close shuts down every spawned instance and leaves the RemoteBroker group.
func (rb *RemoteBroker) Close() error {
	rb.mu.Lock()
	if rb.closed {
		rb.mu.Unlock()
		return nil
	}
	rb.closed = true
	all := rb.instances
	rb.instances = map[string][]*BoundObject{}
	rb.mu.Unlock()
	for oid, list := range all {
		for _, bo := range list {
			rb.stopInstance(oid, bo)
		}
	}
	return rb.self.Unbind()
}

// --- remote API types (exposed over ObjectMQ) ---

// SpawnRequest asks a RemoteBroker to start instances of an object id.
type SpawnRequest struct {
	OID string `json:"oid"`
	N   int    `json:"n"`
}

// SpawnReply reports how many instances were started and where.
type SpawnReply struct {
	BrokerID string `json:"brokerId"`
	Started  int    `json:"started"`
}

// ShutdownRequest asks a specific RemoteBroker to stop up to N instances. A
// broker whose id differs from Target ignores the request (multicast
// addressing).
type ShutdownRequest struct {
	Target string `json:"target"`
	OID    string `json:"oid"`
	N      int    `json:"n"`
}

// ShutdownReply reports how many instances were stopped.
type ShutdownReply struct {
	BrokerID string `json:"brokerId"`
	Stopped  int    `json:"stopped"`
}

// InventoryQuery asks RemoteBrokers for their instance counts.
type InventoryQuery struct {
	OID string `json:"oid,omitempty"` // empty = all
}

// Inventory is one RemoteBroker's answer to an InventoryQuery.
type Inventory struct {
	BrokerID string         `json:"brokerId"`
	Counts   map[string]int `json:"counts"`
}

// remoteBrokerAPI is the reflection-dispatched remote surface.
type remoteBrokerAPI struct {
	rb *RemoteBroker
}

// Spawn starts instances locally. Invoked unicast by the Supervisor; the
// queue picks whichever RemoteBroker is idle, spreading load.
func (a *remoteBrokerAPI) Spawn(req SpawnRequest) (SpawnReply, error) {
	started, err := a.rb.SpawnLocal(req.OID, req.N)
	if err != nil {
		return SpawnReply{}, err
	}
	return SpawnReply{BrokerID: a.rb.broker.id, Started: started}, nil
}

// Shutdown stops instances when this broker is the target.
func (a *remoteBrokerAPI) Shutdown(req ShutdownRequest) ShutdownReply {
	if req.Target != "" && req.Target != a.rb.broker.id {
		return ShutdownReply{BrokerID: a.rb.broker.id}
	}
	return ShutdownReply{BrokerID: a.rb.broker.id, Stopped: a.rb.ShutdownLocal(req.OID, req.N)}
}

// ListInstances reports local instance counts; the Supervisor multicalls it
// for introspection and failure detection.
func (a *remoteBrokerAPI) ListInstances(q InventoryQuery) Inventory {
	a.rb.mu.Lock()
	defer a.rb.mu.Unlock()
	counts := make(map[string]int, len(a.rb.instances))
	for oid, list := range a.rb.instances {
		if q.OID != "" && q.OID != oid {
			continue
		}
		counts[oid] = len(list)
	}
	return Inventory{BrokerID: a.rb.broker.id, Counts: counts}
}
