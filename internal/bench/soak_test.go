package bench

import (
	"bytes"
	"testing"
	"time"
)

// TestChaosSoakConverges runs the chaos soak with a fixed seed at a size
// whose workload outlasts both phase switches and the first kill (4 devices
// over the 3 workspaces, so two devices race in one workspace), and asserts
// it breaks no invariant: every device converged on every acked commit, no
// spurious conflict copy, respawn under ~1 s, the fleet settled on the final
// phase, a reproducible schedule, and a commit made after the closing kill
// whose trace is complete and crosses instances. The full-size soak is
// `experiments -run chaos`.
func TestChaosSoakConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	res, err := RunSoak(SoakConfig{
		Seed: 42, Clients: 4,
		CommitsPerClient: 25, CommitGap: 30 * time.Millisecond,
		PhaseEvery: 250 * time.Millisecond, CrashEvery: 350 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	t.Logf("\n%s", buf.String())
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
}

// TestChaosScheduleByteIdentical nails the determinism contract without
// running the stack: two plans from the same seed describe byte-identical
// schedules; a different seed differs.
func TestChaosScheduleByteIdentical(t *testing.T) {
	cfg := SoakConfig{Seed: 7}
	cfg.applyDefaults()
	a := soakPlan(cfg, nil).Describe(1024)
	b := soakPlan(cfg, nil).Describe(1024)
	if a != b {
		t.Fatal("same seed produced different schedules")
	}
	other := cfg
	other.Seed = 8
	if a == soakPlan(other, nil).Describe(1024) {
		t.Fatal("different seeds produced identical schedules")
	}
}
