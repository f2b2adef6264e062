// Package objstore is the Storage back-end substrate (paper: OpenStack
// Swift). StackSync clients PUT and GET immutable, content-addressed chunks
// in per-user containers; the SyncService never touches data flows, only
// metadata — the decoupling at the core of the architecture (§4).
//
// The Store API is context-aware and batch-only: every method takes a
// context.Context, and PutMulti/GetMulti/ExistsMulti move many chunks per
// round trip. Batch calls are the client's transfer-pipeline primitive:
// ExistsMulti is the server-assisted dedup probe (skip uploading chunks the
// container already holds), PutMulti/GetMulti amortize per-request overhead
// across a worker pool. One object is a batch of one.
//
// Backends: Memory and Disk, and HTTPStore for a remote gateway (Handler).
// Wrappers add per-request accounting (Metered, used by the traffic
// experiments), a latency/bandwidth model (Simulated, used by the sync-time
// experiments) and deterministic fault injection (Faulty). Wrappers charge
// batch operations per object, so the paper's traffic and sync-time
// experiments stay accurate under batching.
package objstore

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Errors returned by stores.
var (
	ErrNotFound     = errors.New("objstore: object not found")
	ErrNoContainer  = errors.New("objstore: container not found")
	ErrUnauthorized = errors.New("objstore: unauthorized")
)

// Object pairs a key with its payload for batch puts.
type Object struct {
	Key  string
	Data []byte
}

// Store is the object-storage surface the client uses. Keys are chunk
// fingerprints; containers isolate users (per-user deduplication only,
// §4.1).
//
// Contract, pinned down by the storetest conformance suite:
//   - Operations against a missing container fail with ErrNoContainer.
//   - An absent key is a nil GetMulti entry plus ErrNotFound; ExistsMulti
//     reports false for it.
//   - Content-addressed puts are idempotent: re-putting a key succeeds.
//   - A canceled context fails every operation with the context's error.
type Store interface {
	// EnsureContainer creates the container if missing.
	EnsureContainer(ctx context.Context, container string) error
	// PutMulti stores every object. Puts are idempotent, so a failed batch
	// may have applied a prefix; retrying the whole batch is always safe.
	PutMulti(ctx context.Context, container string, objects []Object) error
	// GetMulti returns object data aligned with keys. Present keys yield
	// non-nil slices (empty objects yield empty non-nil slices); absent keys
	// yield nil entries and contribute ErrNotFound to the returned error, so
	// callers get the partial results alongside errors.Is-able misses. Any
	// other failure aborts the batch.
	GetMulti(ctx context.Context, container string, keys []string) ([][]byte, error)
	// ExistsMulti reports presence aligned with keys.
	ExistsMulti(ctx context.Context, container string, keys []string) ([]bool, error)
}

// opErr decorates an error with the failing operation and object.
func opErr(op, container, key string, err error) error {
	if key == "" {
		return fmt.Errorf("objstore: %s %s: %w", op, container, err)
	}
	return fmt.Errorf("objstore: %s %s/%s: %w", op, container, key, err)
}

// ctxErr reports a canceled or expired context as the operation's error.
func ctxErr(ctx context.Context, op, container string) error {
	if err := ctx.Err(); err != nil {
		return opErr(op, container, "", err)
	}
	return nil
}

// getEach builds GetMulti's partial-result contract from a per-key read,
// re-checking ctx between keys: misses accumulate, other errors abort.
func getEach(ctx context.Context, container string, keys []string, get func(key string) ([]byte, error)) ([][]byte, error) {
	out := make([][]byte, len(keys))
	var errs []error
	for i, k := range keys {
		if err := ctxErr(ctx, "getmulti", container); err != nil {
			return out, err
		}
		data, err := get(k)
		switch {
		case err == nil:
			out[i] = data
		case errors.Is(err, ErrNotFound):
			errs = append(errs, err)
		default:
			return out, err
		}
	}
	return out, errors.Join(errs...)
}

// Memory is an in-process Store.
type Memory struct {
	mu         sync.RWMutex
	containers map[string]map[string][]byte
}

var _ Store = (*Memory)(nil)

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{containers: make(map[string]map[string][]byte)}
}

// EnsureContainer creates the container if missing.
func (m *Memory) EnsureContainer(ctx context.Context, container string) error {
	if err := ctxErr(ctx, "ensure", container); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.containers[container]; !ok {
		m.containers[container] = make(map[string][]byte)
	}
	return nil
}

// bucket returns the objects of container; the caller holds m.mu.
func (m *Memory) bucket(ctx context.Context, op, container string) (map[string][]byte, error) {
	if err := ctxErr(ctx, op, container); err != nil {
		return nil, err
	}
	c, ok := m.containers[container]
	if !ok {
		return nil, opErr(op, container, "", ErrNoContainer)
	}
	return c, nil
}

// clone copies b into a non-nil slice, so stored and returned objects never
// alias the caller's buffers and empty objects stay distinct from misses.
func clone(b []byte) []byte {
	return append(make([]byte, 0, len(b)), b...)
}

// PutMulti stores a copy of every object under one lock acquisition.
func (m *Memory) PutMulti(ctx context.Context, container string, objects []Object) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, err := m.bucket(ctx, "putmulti", container)
	if err != nil {
		return err
	}
	for _, o := range objects {
		c[o.Key] = clone(o.Data)
	}
	return nil
}

// GetMulti returns copies of the stored objects under one lock acquisition.
func (m *Memory) GetMulti(ctx context.Context, container string, keys []string) ([][]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	c, err := m.bucket(ctx, "getmulti", container)
	if err != nil {
		return nil, err
	}
	return getEach(ctx, container, keys, func(k string) ([]byte, error) {
		data, ok := c[k]
		if !ok {
			return nil, opErr("getmulti", container, k, ErrNotFound)
		}
		return clone(data), nil
	})
}

// ExistsMulti probes every key under one lock acquisition.
func (m *Memory) ExistsMulti(ctx context.Context, container string, keys []string) ([]bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	c, err := m.bucket(ctx, "existsmulti", container)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(keys))
	for i, k := range keys {
		_, out[i] = c[k]
	}
	return out, nil
}
