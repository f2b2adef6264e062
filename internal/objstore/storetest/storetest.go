// Package storetest pins down the objstore.Store contract as an executable
// conformance suite. Every Store implementation — backends, wrappers, the
// remote gateway pair and the client's resilience layer — runs the same
// suite, so sentinel errors, idempotent content-addressed puts, context
// cancellation and the batch calls' per-key semantics behave identically no
// matter how the store is composed.
package storetest

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"stacksync/internal/objstore"
)

// Containers are the container names the suite creates.
var Containers = []string{"stc-a", "stc-b"}

// MissingContainer is probed but never created.
const MissingContainer = "stc-missing"

// Run exercises the full Store contract against a fresh store from mk.
// Implementations with per-operation side effects (metering, simulated
// latency) must be configured so operations succeed; fault injectors must
// use a no-fault plan.
func Run(t *testing.T, mk func(t *testing.T) objstore.Store) {
	t.Helper()
	t.Run("sentinels", func(t *testing.T) { runSentinels(t, mk(t)) })
	t.Run("roundtrip", func(t *testing.T) { runRoundtrip(t, mk(t)) })
	t.Run("batch", func(t *testing.T) { runBatch(t, mk(t)) })
	t.Run("cancellation", func(t *testing.T) { runCancellation(t, mk(t)) })
}

// put stores one object as a batch of one.
func put(ctx context.Context, s objstore.Store, c, key string, data []byte) error {
	return s.PutMulti(ctx, c, []objstore.Object{{Key: key, Data: data}})
}

// get fetches one key as a batch of one.
func get(ctx context.Context, s objstore.Store, c, key string) ([]byte, error) {
	data, err := s.GetMulti(ctx, c, []string{key})
	if len(data) != 1 {
		return nil, err
	}
	return data[0], err
}

// exists probes one key as a batch of one.
func exists(ctx context.Context, s objstore.Store, c, key string) (bool, error) {
	present, err := s.ExistsMulti(ctx, c, []string{key})
	return len(present) == 1 && present[0], err
}

func runSentinels(t *testing.T, s objstore.Store) {
	ctx := context.Background()
	// Every operation against a missing container fails with ErrNoContainer.
	if err := put(ctx, s, MissingContainer, "k", []byte("v")); !errors.Is(err, objstore.ErrNoContainer) {
		t.Fatalf("putmulti without container: %v", err)
	}
	if _, err := get(ctx, s, MissingContainer, "k"); !errors.Is(err, objstore.ErrNoContainer) {
		t.Fatalf("getmulti without container: %v", err)
	}
	if _, err := exists(ctx, s, MissingContainer, "k"); !errors.Is(err, objstore.ErrNoContainer) {
		t.Fatalf("existsmulti without container: %v", err)
	}

	if err := s.EnsureContainer(ctx, Containers[0]); err != nil {
		t.Fatal(err)
	}
	// Absent objects: a nil entry plus ErrNotFound from GetMulti, a false
	// answer (no error) from ExistsMulti.
	if data, err := get(ctx, s, Containers[0], "absent"); !errors.Is(err, objstore.ErrNotFound) || data != nil {
		t.Fatalf("getmulti absent = %q, %v", data, err)
	}
	ok, err := exists(ctx, s, Containers[0], "absent")
	if err != nil || ok {
		t.Fatalf("existsmulti absent = %v, %v", ok, err)
	}
}

func runRoundtrip(t *testing.T, s objstore.Store) {
	ctx := context.Background()
	c := Containers[0]
	if err := s.EnsureContainer(ctx, c); err != nil {
		t.Fatal(err)
	}
	// Re-ensuring is idempotent.
	if err := s.EnsureContainer(ctx, c); err != nil {
		t.Fatalf("re-ensure: %v", err)
	}

	payload := []byte("chunk-content")
	if err := put(ctx, s, c, "abc123", payload); err != nil {
		t.Fatal(err)
	}
	got, err := get(ctx, s, c, "abc123")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("get = %q, %v", got, err)
	}
	ok, err := exists(ctx, s, c, "abc123")
	if err != nil || !ok {
		t.Fatalf("exists = %v, %v", ok, err)
	}

	// Content-addressed puts are idempotent: re-putting the key succeeds and
	// leaves the content readable.
	if err := put(ctx, s, c, "abc123", payload); err != nil {
		t.Fatalf("re-put: %v", err)
	}
	if got, err := get(ctx, s, c, "abc123"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("get after re-put = %q, %v", got, err)
	}

	// Containers are isolated.
	if err := s.EnsureContainer(ctx, Containers[1]); err != nil {
		t.Fatal(err)
	}
	if ok, _ := exists(ctx, s, Containers[1], "abc123"); ok {
		t.Fatal("object leaked across containers")
	}
	if _, err := get(ctx, s, Containers[1], "abc123"); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("get across containers: %v, want ErrNotFound", err)
	}
}

func runBatch(t *testing.T, s objstore.Store) {
	ctx := context.Background()
	c := Containers[0]
	if err := s.EnsureContainer(ctx, c); err != nil {
		t.Fatal(err)
	}

	// Empty batches are no-ops.
	if err := s.PutMulti(ctx, c, nil); err != nil {
		t.Fatalf("empty putmulti: %v", err)
	}
	if data, err := s.GetMulti(ctx, c, nil); err != nil || len(data) != 0 {
		t.Fatalf("empty getmulti = %v, %v", data, err)
	}
	if present, err := s.ExistsMulti(ctx, c, nil); err != nil || len(present) != 0 {
		t.Fatalf("empty existsmulti = %v, %v", present, err)
	}

	// Every object of a batch put lands.
	objs := []objstore.Object{
		{Key: "b1", Data: []byte("one")},
		{Key: "b2", Data: []byte("two")},
		{Key: "b3", Data: []byte{}}, // empty objects are legal
	}
	if err := s.PutMulti(ctx, c, objs); err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		got, err := get(ctx, s, c, o.Key)
		if err != nil || !bytes.Equal(got, o.Data) {
			t.Fatalf("get %s after putmulti = %q, %v", o.Key, got, err)
		}
	}
	// Re-putting the batch is idempotent.
	if err := s.PutMulti(ctx, c, objs); err != nil {
		t.Fatalf("re-putmulti: %v", err)
	}

	// ExistsMulti aligns with its keys and agrees with per-key probes.
	keys := []string{"b1", "nope", "b3"}
	present, err := s.ExistsMulti(ctx, c, keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(present) != 3 || !present[0] || present[1] || !present[2] {
		t.Fatalf("existsmulti = %v, want [true false true]", present)
	}
	for i, k := range keys {
		if ok, err := exists(ctx, s, c, k); err != nil || ok != present[i] {
			t.Fatalf("exists %s alone = %v, %v; in the batch %v", k, ok, err, present[i])
		}
	}

	// GetMulti of present keys: aligned data, nil error. Present empty
	// objects come back as empty non-nil slices.
	data, err := s.GetMulti(ctx, c, []string{"b2", "b1", "b3"})
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 3 || string(data[0]) != "two" || string(data[1]) != "one" {
		t.Fatalf("getmulti = %q", data)
	}
	if data[2] == nil || len(data[2]) != 0 {
		t.Fatalf("empty object came back as %v", data[2])
	}

	// GetMulti with misses: partial results survive, the error wraps
	// ErrNotFound, and the missing entry is nil.
	data, err = s.GetMulti(ctx, c, []string{"b1", "missing", "b2"})
	if !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("getmulti miss error = %v", err)
	}
	if len(data) != 3 || string(data[0]) != "one" || data[1] != nil || string(data[2]) != "two" {
		t.Fatalf("getmulti partial = %q", data)
	}

	// A batch of one round-trips like a larger batch.
	if err := put(ctx, s, c, "solo", []byte("s")); err != nil {
		t.Fatal(err)
	}
	data, err = s.GetMulti(ctx, c, []string{"solo"})
	if err != nil || len(data) != 1 || string(data[0]) != "s" {
		t.Fatalf("single-batch put round trip = %q, %v", data, err)
	}
	data, err = s.GetMulti(ctx, c, []string{"missing"})
	if !errors.Is(err, objstore.ErrNotFound) || len(data) != 1 || data[0] != nil {
		t.Fatalf("single-batch miss = %q, %v, want [nil] and ErrNotFound", data, err)
	}
}

func runCancellation(t *testing.T, s objstore.Store) {
	live := context.Background()
	c := Containers[0]
	if err := s.EnsureContainer(live, c); err != nil {
		t.Fatal(err)
	}
	if err := put(live, s, c, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	check := func(op string, err error) {
		t.Helper()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s with canceled ctx: %v, want context.Canceled", op, err)
		}
	}
	check("ensure", s.EnsureContainer(ctx, c))
	check("putmulti", s.PutMulti(ctx, c, []objstore.Object{{Key: "k3", Data: []byte("v")}}))
	_, err := s.GetMulti(ctx, c, []string{"k"})
	check("getmulti", err)
	_, err = s.ExistsMulti(ctx, c, []string{"k"})
	check("existsmulti", err)

	// The store still works after the canceled calls, and the canceled put
	// stored nothing.
	if got, err := get(live, s, c, "k"); err != nil || string(got) != "v" {
		t.Fatalf("store broken after cancellation: %q, %v", got, err)
	}
	if ok, err := exists(live, s, c, "k3"); err != nil || ok {
		t.Fatalf("canceled putmulti stored k3: %v, %v", ok, err)
	}
}
