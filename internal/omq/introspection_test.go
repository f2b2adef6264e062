package omq

import (
	"math"
	"testing"
	"time"

	"stacksync/internal/clock"
	"stacksync/internal/mq"
)

// vclockService advances the shared virtual clock by exactly `cost` per call,
// so every handler execution has a deterministic service time.
type vclockService struct {
	clk  *clock.Virtual
	cost time.Duration
}

func (s *vclockService) Work(x int) (int, error) {
	s.clk.Advance(s.cost)
	return x, nil
}

// TestObjectInfoRateMathVirtualClock pins the introspection arithmetic the
// provisioner trusts (§3.3), with no wall-clock noise: under a virtual clock
// shared by the MQ broker (arrival timestamps) and the ObjectMQ broker
// (service-time measurement), N calls that each cost exactly 1 virtual
// second must yield ArrivalRate = N/60 (the 60 s sliding window), a mean
// service time of exactly 1 s with zero variance, and matching registry
// gauges.
func TestObjectInfoRateMathVirtualClock(t *testing.T) {
	start := time.Unix(1_000_000, 0)
	vclk := clock.NewVirtual(start)
	m := mq.NewBroker(mq.WithClock(vclk))
	defer m.Close()

	server, err := NewBroker(m, WithBrokerClock(vclk), WithID("srv"))
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	cli, err := NewBroker(m, WithBrokerClock(vclk), WithID("cli"))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const oid = "vsvc"
	bo, err := server.Bind(oid, &vclockService{clk: vclk, cost: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer bo.Unbind()

	// 30 sync calls: call i arrives at virtual second i and its handler
	// advances the clock to second i+1. All arrivals stay inside the 60 s
	// window, so the final rate is exactly 30/60.
	const calls = 30
	p := cli.Lookup(oid)
	for i := 0; i < calls; i++ {
		var out int
		if err := p.Call("Work", &out, i); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if out != i {
			t.Fatalf("call %d returned %d", i, out)
		}
	}

	// The instance acks a call after replying, so the last ack can land
	// just after the last reply returns.
	var info ObjectInfo
	waitFor(t, 5*time.Second, func() bool {
		info, err = server.ObjectInfo(oid)
		return err == nil && info.Processed >= calls
	})
	if want := float64(calls) / 60.0; info.ArrivalRate != want {
		t.Fatalf("arrival rate = %v, want exactly %v", info.ArrivalRate, want)
	}
	if info.MeanServiceTime != time.Second {
		t.Fatalf("mean service time = %v, want exactly 1s", info.MeanServiceTime)
	}
	if info.ServiceTimeVar != 0 {
		t.Fatalf("service-time variance = %v, want 0 (identical costs)", info.ServiceTimeVar)
	}
	if info.Processed != calls || info.Enqueued != calls {
		t.Fatalf("processed/enqueued = %d/%d, want %d/%d", info.Processed, info.Enqueued, calls, calls)
	}
	if info.QueueDepth != 0 || info.Instances != 1 {
		t.Fatalf("depth/instances = %d/%d, want 0/1", info.QueueDepth, info.Instances)
	}

	// The registry series mirror the same introspection numbers.
	reg := server.Registry()
	if rate, ok := reg.GaugeValue("omq_arrival_rate", "oid", oid); !ok || rate != float64(calls)/60.0 {
		t.Fatalf("omq_arrival_rate gauge = %v ok=%v", rate, ok)
	}
	if mean, ok := reg.GaugeValue("omq_service_mean_seconds", "oid", oid, "instance", "srv"); !ok || math.Abs(mean-1) > 1e-9 {
		t.Fatalf("omq_service_mean_seconds gauge = %v ok=%v, want 1", mean, ok)
	}
	if depth, ok := reg.GaugeValue("omq_queue_depth", "oid", oid); !ok || depth != 0 {
		t.Fatalf("omq_queue_depth gauge = %v ok=%v, want 0", depth, ok)
	}

	// Half a window of idle virtual time later the same arrivals still count;
	// a full window later the rate decays to zero.
	vclk.Advance(29 * time.Second)
	if info, _ = server.ObjectInfo(oid); info.ArrivalRate != float64(calls)/60.0 {
		t.Fatalf("rate after 29 idle seconds = %v, want unchanged", info.ArrivalRate)
	}
	vclk.Advance(61 * time.Second)
	if info, _ = server.ObjectInfo(oid); info.ArrivalRate != 0 {
		t.Fatalf("rate after window expiry = %v, want 0", info.ArrivalRate)
	}
}
