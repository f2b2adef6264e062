package omq

import (
	"testing"
	"time"

	"stacksync/internal/mq"
)

func benchRig(b *testing.B) (*Broker, *Broker) {
	b.Helper()
	m := mq.NewBroker()
	server, err := NewBroker(m)
	if err != nil {
		b.Fatal(err)
	}
	client, err := NewBroker(m)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		_ = client.Close()
		_ = server.Close()
		_ = m.Close()
	})
	return server, client
}

// BenchmarkSyncCall measures @SyncMethod round-trip latency — the
// per-request overhead ObjectMQ adds over raw queues.
func BenchmarkSyncCall(b *testing.B) {
	server, client := benchRig(b)
	if _, err := server.Bind("calc", &calc{}); err != nil {
		b.Fatal(err)
	}
	p := client.Lookup("calc", WithTimeout(5*time.Second))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum int
		if err := p.Call("Add", &sum, addArgs{A: i, B: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAsyncCall measures the fire-and-forget path (@AsyncMethod), the
// commitRequest hot path.
func BenchmarkAsyncCall(b *testing.B) {
	server, client := benchRig(b)
	c := &calc{}
	if _, err := server.Bind("calc", c); err != nil {
		b.Fatal(err)
	}
	p := client.Lookup("calc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Async("Fire", i); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Drain so Close doesn't race the queue.
	deadline := time.Now().Add(10 * time.Second)
	for c.calls.Load() < int64(b.N) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkPublishDisabledTracer is the disabled-tracer overhead guard for
// the publish hot path: with no tracer wired, a one-way publish must carry a
// nil header map (no per-message map allocation for trace injection). Run
// with -benchmem and compare allocs/op before and after touching the header
// path.
func BenchmarkPublishDisabledTracer(b *testing.B) {
	server, client := benchRig(b)
	c := &calc{}
	if _, err := server.Bind("calc", c); err != nil {
		b.Fatal(err)
	}
	p := client.Lookup("calc")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Async("Fire", i); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	deadline := time.Now().Add(10 * time.Second)
	for c.calls.Load() < int64(b.N) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkMultiCallCollect measures the @MultiMethod+@SyncMethod group
// call used by the Supervisor's introspection.
func BenchmarkMultiCallCollect(b *testing.B) {
	m := mq.NewBroker()
	defer m.Close()
	for i := 0; i < 4; i++ {
		sb, err := NewBroker(m)
		if err != nil {
			b.Fatal(err)
		}
		defer sb.Close()
		if _, err := sb.Bind("calc", &calc{id: sb.ID()}); err != nil {
			b.Fatal(err)
		}
	}
	client, err := NewBroker(m)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	p := client.Lookup("calc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replies, err := p.MultiCall("WhoAmI", 50*time.Millisecond, struct{}{})
		if err != nil {
			b.Fatal(err)
		}
		if len(replies) != 4 {
			b.Fatalf("collected %d/4", len(replies))
		}
	}
}
