package client

import (
	"context"
	"errors"
	"sync"
	"time"

	"stacksync/internal/objstore"
)

// ErrCircuitOpen reports that the client's storage circuit breaker is open:
// recent requests failed consecutively and the cooldown has not elapsed, so
// the operation was not attempted at all. Callers treat it like any other
// transient storage failure (queue the upload, retry the download later).
var ErrCircuitOpen = errors.New("client: storage circuit open")

// The retry and breaker policy of the client's storage path: 3 extra
// attempts, 20 ms doubling backoff, and 5 consecutive failures open the
// circuit for 500 ms. While it is open, chunk uploads queue and drain in the
// background, so commits stay available (degraded mode).
const (
	storeRetries     = 3
	storeBackoff     = 20 * time.Millisecond
	breakerThreshold = 5
	breakerCooldown  = 500 * time.Millisecond
)

// breakerStore wraps the Storage back-end with the client-side resilience
// the paper's architecture pushes onto data flows (§4.1: clients talk to
// storage directly, so they — not the SyncService — must absorb its faults):
// bounded retries with exponential backoff around each operation, and a
// circuit breaker that stops hammering a down store after `threshold`
// consecutive failures until `cooldown` passes. Batch operations admit once
// and retry as a unit; content-addressed puts make replays idempotent.
type breakerStore struct {
	inner   objstore.Store
	retries int           // extra attempts after the first
	backoff time.Duration // pause before retry n is backoff<<n

	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	failures int       // consecutive transient failures
	openedAt time.Time // breaker open since; zero when closed
	trips    uint64    // times the breaker opened
}

var _ objstore.Store = (*breakerStore)(nil)

func newBreakerStore(inner objstore.Store, retries int, backoff time.Duration, threshold int, cooldown time.Duration) *breakerStore {
	return &breakerStore{
		inner:   inner,
		retries: retries, backoff: backoff,
		threshold: threshold, cooldown: cooldown,
	}
}

// permanentStoreErr reports failures no retry can fix: the object is absent
// or we are not allowed to see it. The store answered, so these also reset
// the breaker's failure streak. A GetMulti that found most of its keys joins
// ErrNotFound for the misses — that is a definitive (partial) answer, not an
// outage.
func permanentStoreErr(err error) bool {
	return errors.Is(err, objstore.ErrNotFound) ||
		errors.Is(err, objstore.ErrNoContainer) ||
		errors.Is(err, objstore.ErrUnauthorized)
}

// canceledErr reports that the caller gave up, not that the store failed.
func canceledErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// do runs op under the retry/breaker policy. Context errors pass through
// untouched and never count against the breaker: an impatient caller says
// nothing about the store's health.
func (b *breakerStore) do(ctx context.Context, op func() error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !b.admit() {
		return ErrCircuitOpen
	}
	var err error
	for attempt := 0; ; attempt++ {
		err = op()
		if err == nil || permanentStoreErr(err) {
			b.succeed()
			return err
		}
		if canceledErr(err) {
			return err
		}
		if attempt >= b.retries {
			break
		}
		time.Sleep(b.backoff << attempt)
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
	}
	b.fail()
	return err
}

// admit reports whether a request may proceed; an expired cooldown half-opens
// the breaker (one probe request goes through).
func (b *breakerStore) admit() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openedAt.IsZero() {
		return true
	}
	if time.Since(b.openedAt) >= b.cooldown {
		// Half-open: allow a probe; failure re-opens via fail().
		b.openedAt = time.Time{}
		b.failures = b.threshold - 1
		return true
	}
	return false
}

func (b *breakerStore) succeed() {
	b.mu.Lock()
	b.failures = 0
	b.openedAt = time.Time{}
	b.mu.Unlock()
}

func (b *breakerStore) fail() {
	b.mu.Lock()
	b.failures++
	if b.failures >= b.threshold && b.openedAt.IsZero() {
		b.openedAt = time.Now()
		b.trips++
	}
	b.mu.Unlock()
}

// Open reports whether the breaker currently rejects requests.
func (b *breakerStore) Open() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.openedAt.IsZero() && time.Since(b.openedAt) < b.cooldown
}

// Trips reports how many times the breaker has opened.
func (b *breakerStore) Trips() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// EnsureContainer applies the policy.
func (b *breakerStore) EnsureContainer(ctx context.Context, container string) error {
	return b.do(ctx, func() error { return b.inner.EnsureContainer(ctx, container) })
}

// PutMulti applies the policy to the whole batch: one breaker admission, the
// batch retried as a unit. Replaying an already-landed prefix is safe —
// chunk keys are content fingerprints, so puts are idempotent.
func (b *breakerStore) PutMulti(ctx context.Context, container string, objects []objstore.Object) error {
	if len(objects) == 0 {
		return nil
	}
	return b.do(ctx, func() error { return b.inner.PutMulti(ctx, container, objects) })
}

// GetMulti applies the policy to the whole batch. Partial results survive:
// a joined ErrNotFound counts as a definitive answer (see permanentStoreErr)
// and comes back with whatever data was found.
func (b *breakerStore) GetMulti(ctx context.Context, container string, keys []string) ([][]byte, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	var data [][]byte
	err := b.do(ctx, func() (e error) { data, e = b.inner.GetMulti(ctx, container, keys); return e })
	return data, err
}

// ExistsMulti applies the policy to the whole batch.
func (b *breakerStore) ExistsMulti(ctx context.Context, container string, keys []string) ([]bool, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	var present []bool
	err := b.do(ctx, func() (e error) { present, e = b.inner.ExistsMulti(ctx, container, keys); return e })
	return present, err
}

// uploadQueue holds chunk uploads deferred because storage was failing when
// the commit was proposed — the graceful-degradation half of the breaker:
// metadata commits stay available while data uploads drain in the
// background once the store recovers.
type uploadQueue struct {
	mu      sync.Mutex
	pending map[string][]byte // fingerprint -> compressed bytes
	order   []string
}

func newUploadQueue() *uploadQueue {
	return &uploadQueue{pending: make(map[string][]byte)}
}

func (q *uploadQueue) add(fp string, data []byte) {
	q.mu.Lock()
	if _, ok := q.pending[fp]; !ok {
		q.pending[fp] = data
		q.order = append(q.order, fp)
	}
	q.mu.Unlock()
}

// snapshot returns the queued uploads in FIFO order.
func (q *uploadQueue) snapshot() []string {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]string, len(q.order))
	copy(out, q.order)
	return out
}

func (q *uploadQueue) get(fp string) ([]byte, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	data, ok := q.pending[fp]
	return data, ok
}

func (q *uploadQueue) remove(fp string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.pending[fp]; !ok {
		return
	}
	delete(q.pending, fp)
	for i, f := range q.order {
		if f == fp {
			q.order = append(q.order[:i], q.order[i+1:]...)
			break
		}
	}
}

func (q *uploadQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.order)
}
