package objstore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"stacksync/internal/clock"
	"stacksync/internal/faults"
	"stacksync/internal/obs"
)

// Traffic is a snapshot of bytes and requests through a Metered store. The
// protocol-overhead experiments (Fig. 7b–d, Table 2) read these counters as
// "storage traffic". Batch operations charge per object — PutMulti of n
// objects counts n puts — so traffic numbers stay comparable whether the
// client batches or not.
type Traffic struct {
	Puts          uint64 `json:"puts"`
	Gets          uint64 `json:"gets"`
	BytesUp       uint64 `json:"bytesUp"`
	BytesDown     uint64 `json:"bytesDown"`
	OtherRequests uint64 `json:"otherRequests"`
}

// Total returns all bytes moved in either direction.
func (t Traffic) Total() uint64 { return t.BytesUp + t.BytesDown }

// Metered wraps a Store and counts requests and payload bytes.
type Metered struct {
	inner Store

	mu sync.Mutex
	t  Traffic
}

var _ Store = (*Metered)(nil)

// NewMetered wraps inner with traffic accounting.
func NewMetered(inner Store) *Metered { return &Metered{inner: inner} }

// Traffic returns the current counters.
func (m *Metered) Traffic() Traffic {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.t
}

// Reset zeroes the counters.
func (m *Metered) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.t = Traffic{}
}

// Register exposes the traffic counters as lazily read gauges on reg
// (objstore_bytes_up/objstore_bytes_down/objstore_puts/objstore_gets),
// tagged with the given label pairs. Gauges rather than counters because
// Reset (used between experiment phases) may rewind them.
func (m *Metered) Register(reg *obs.Registry, labels ...string) {
	read := func(f func(Traffic) uint64) func() float64 {
		return func() float64 { return float64(f(m.Traffic())) }
	}
	reg.GaugeFunc("objstore_bytes_up", read(func(t Traffic) uint64 { return t.BytesUp }), labels...)
	reg.GaugeFunc("objstore_bytes_down", read(func(t Traffic) uint64 { return t.BytesDown }), labels...)
	reg.GaugeFunc("objstore_puts", read(func(t Traffic) uint64 { return t.Puts }), labels...)
	reg.GaugeFunc("objstore_gets", read(func(t Traffic) uint64 { return t.Gets }), labels...)
}

// EnsureContainer forwards and counts a control request.
func (m *Metered) EnsureContainer(ctx context.Context, container string) error {
	m.count(func(t *Traffic) { t.OtherRequests++ })
	return m.inner.EnsureContainer(ctx, container)
}

// PutMulti forwards the batch and charges one put per object.
func (m *Metered) PutMulti(ctx context.Context, container string, objects []Object) error {
	m.count(func(t *Traffic) {
		for _, o := range objects {
			t.Puts++
			t.BytesUp += uint64(len(o.Data))
		}
	})
	return m.inner.PutMulti(ctx, container, objects)
}

// GetMulti forwards the batch and charges one get per key plus the bytes
// actually returned (partial results are charged for what arrived).
func (m *Metered) GetMulti(ctx context.Context, container string, keys []string) ([][]byte, error) {
	data, err := m.inner.GetMulti(ctx, container, keys)
	m.count(func(t *Traffic) {
		t.Gets += uint64(len(keys))
		for _, d := range data {
			t.BytesDown += uint64(len(d))
		}
	})
	return data, err
}

// ExistsMulti forwards the batch and charges one control request per key.
func (m *Metered) ExistsMulti(ctx context.Context, container string, keys []string) ([]bool, error) {
	m.count(func(t *Traffic) { t.OtherRequests += uint64(len(keys)) })
	return m.inner.ExistsMulti(ctx, container, keys)
}

func (m *Metered) count(f func(*Traffic)) {
	m.mu.Lock()
	f(&m.t)
	m.mu.Unlock()
}

// Simulated wraps a Store with a latency and bandwidth model so sync-time
// experiments reproduce the storage-bound shape of Fig. 7(e,f) without the
// paper's Swift cluster: each request pays PerRequest, and each payload pays
// size/BytesPerSecond. Batch operations pay per object — the model treats a
// batch as a pipelined sequence of requests on one connection — so batching
// alone buys nothing in simulated time; parallel batches across the client's
// transfer workers overlap their sleeps, which is exactly the paper's
// transfer-parallelism lever.
type Simulated struct {
	inner Store
	clk   clock.Clock
	// PerRequest is the fixed round-trip cost of any storage request.
	PerRequest time.Duration
	// BytesPerSecond is the modelled transfer bandwidth (0 = infinite).
	BytesPerSecond float64
}

var _ Store = (*Simulated)(nil)

// NewSimulated wraps inner with the given latency model.
func NewSimulated(inner Store, clk clock.Clock, perRequest time.Duration, bytesPerSecond float64) *Simulated {
	return &Simulated{inner: inner, clk: clk, PerRequest: perRequest, BytesPerSecond: bytesPerSecond}
}

// pay sleeps for d of modelled time.
func (s *Simulated) pay(d time.Duration) {
	if d > 0 {
		s.clk.Sleep(d)
	}
}

func (s *Simulated) cost(n int) time.Duration {
	d := s.PerRequest
	if s.BytesPerSecond > 0 && n > 0 {
		d += time.Duration(float64(n) / s.BytesPerSecond * float64(time.Second))
	}
	return d
}

// EnsureContainer pays one request.
func (s *Simulated) EnsureContainer(ctx context.Context, container string) error {
	s.pay(s.cost(0))
	return s.inner.EnsureContainer(ctx, container)
}

// PutMulti pays request + upload time per object, then forwards the batch.
func (s *Simulated) PutMulti(ctx context.Context, container string, objects []Object) error {
	var d time.Duration
	for _, o := range objects {
		d += s.cost(len(o.Data))
	}
	s.pay(d)
	return s.inner.PutMulti(ctx, container, objects)
}

// GetMulti forwards the batch, then pays request + download time per object
// actually returned (absent keys still pay their probe request).
func (s *Simulated) GetMulti(ctx context.Context, container string, keys []string) ([][]byte, error) {
	data, err := s.inner.GetMulti(ctx, container, keys)
	var d time.Duration
	for i := range keys {
		n := 0
		if i < len(data) {
			n = len(data[i])
		}
		d += s.cost(n)
	}
	s.pay(d)
	return data, err
}

// ExistsMulti pays one request per key, then forwards the batch.
func (s *Simulated) ExistsMulti(ctx context.Context, container string, keys []string) ([]bool, error) {
	s.pay(s.cost(0) * time.Duration(len(keys)))
	return s.inner.ExistsMulti(ctx, container, keys)
}

// ErrInjected marks a fault-injected storage failure. It is transient by
// definition: retrying the operation may succeed once the injected fault (or
// outage window) has passed.
var ErrInjected = errors.New("objstore: injected fault")

// Faulty wraps a Store with deterministic fault injection: per-operation
// transient errors and latency spikes from the plan's decision stream, plus
// scheduled outage windows during which every request fails — the model of a
// Swift cluster that is slow, flaky or unreachable. Batch operations roll one
// fault decision per object, in order, and forward each object that passes
// on its own, so a mid-batch fault leaves the idempotent prefix applied and
// the decision stream does not depend on how the client batches.
type Faulty struct {
	inner Store
	plan  *faults.Plan
	site  string
	clk   clock.Clock
	keys  faults.Keyer
}

var _ Store = (*Faulty)(nil)

// NewFaulty wraps inner with fault injection at the named plan site.
func NewFaulty(inner Store, plan *faults.Plan, site string, clk clock.Clock) *Faulty {
	if clk == nil {
		clk = clock.NewReal()
	}
	return &Faulty{inner: inner, plan: plan, site: site, clk: clk}
}

// inject rolls one decision; it returns a non-nil error when the operation
// must fail, and sleeps first when a latency spike was drawn.
func (f *Faulty) inject(op string) error {
	now := f.clk.Now()
	if f.plan.InOutage(f.site, now) {
		f.plan.Note(f.site, op, faults.Outage, now)
		return fmt.Errorf("objstore: %s during outage: %w", op, ErrInjected)
	}
	k := f.keys.Next()
	switch d := f.plan.Decide(f.site, k); d.Kind {
	case faults.Error:
		f.plan.Note(f.site, k, faults.Error, now)
		return fmt.Errorf("objstore: %s: %w", op, ErrInjected)
	case faults.Delay:
		f.plan.Note(f.site, k, faults.Delay, now)
		f.clk.Sleep(d.Delay)
	}
	return nil
}

// admit fails a canceled ctx, then rolls one fault decision for op.
func (f *Faulty) admit(ctx context.Context, op, container string) error {
	if err := ctxErr(ctx, op, container); err != nil {
		return err
	}
	return f.inject(op)
}

// EnsureContainer injects then forwards.
func (f *Faulty) EnsureContainer(ctx context.Context, container string) error {
	if err := f.admit(ctx, "ensure", container); err != nil {
		return err
	}
	return f.inner.EnsureContainer(ctx, container)
}

// PutMulti injects per object, forwarding each as a batch of one.
func (f *Faulty) PutMulti(ctx context.Context, container string, objects []Object) error {
	for _, o := range objects {
		if err := f.admit(ctx, "put", container); err != nil {
			return err
		}
		if err := f.inner.PutMulti(ctx, container, []Object{o}); err != nil {
			return err
		}
	}
	return nil
}

// GetMulti injects per key, forwarding each as a batch of one.
func (f *Faulty) GetMulti(ctx context.Context, container string, keys []string) ([][]byte, error) {
	return getEach(ctx, container, keys, func(k string) ([]byte, error) {
		if err := f.inject("get"); err != nil {
			return nil, err
		}
		data, err := f.inner.GetMulti(ctx, container, []string{k})
		if err != nil {
			return nil, err
		}
		return data[0], nil
	})
}

// ExistsMulti injects per key, forwarding each as a batch of one.
func (f *Faulty) ExistsMulti(ctx context.Context, container string, keys []string) ([]bool, error) {
	out := make([]bool, len(keys))
	for i, k := range keys {
		if err := f.admit(ctx, "exists", container); err != nil {
			return nil, err
		}
		present, err := f.inner.ExistsMulti(ctx, container, []string{k})
		if err != nil {
			return nil, err
		}
		out[i] = present[0]
	}
	return out, nil
}
