package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestMatrixSmoke runs all three scenarios at smoke size: every scenario must
// converge with zero violations and report consistent latency figures.
func TestMatrixSmoke(t *testing.T) {
	res, err := RunMatrix(MatrixConfig{Seed: 7, Smoke: true})
	if err != nil {
		t.Fatalf("RunMatrix: %v", err)
	}
	if len(res.Scenarios) != 3 {
		t.Fatalf("got %d scenarios, want 3", len(res.Scenarios))
	}
	if v := res.Violations(); len(v) != 0 {
		t.Fatalf("matrix violations: %v", v)
	}
	wantNames := []string{"churn", "coldstart", "reconnect"}
	for i, s := range res.Scenarios {
		if s.Name != wantNames[i] {
			t.Errorf("scenario %d = %s, want %s", i, s.Name, wantNames[i])
		}
		if !s.Converged {
			t.Errorf("%s did not converge", s.Name)
		}
		if s.Ops == 0 || s.OpsPerSec <= 0 {
			t.Errorf("%s throughput empty: ops=%d ops/s=%f", s.Name, s.Ops, s.OpsPerSec)
		}
		if s.P99 <= 0 || s.P50 > s.P99 {
			t.Errorf("%s quantiles inconsistent: p50=%v p99=%v", s.Name, s.P50, s.P99)
		}
		if s.Attainment < 0 || s.Attainment > 1 {
			t.Errorf("%s attainment out of range: %f", s.Name, s.Attainment)
		}
	}

	var buf bytes.Buffer
	res.Print(&buf)
	for _, want := range append(wantNames, "converged") {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("matrix summary missing %q:\n%s", want, buf.String())
		}
	}
}
