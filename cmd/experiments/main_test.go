package main

import (
	"strings"
	"testing"
	"time"
)

// TestUnknownExperimentFailsFastWithAdmin asks for ids that name no
// experiment with -admin set: the error must come back at once, before the
// admin endpoint starts and the command blocks until interrupted.
func TestUnknownExperimentFailsFastWithAdmin(t *testing.T) {
	for _, id := range []string{"nosuch", "fig9"} {
		done := make(chan error, 1)
		go func() { done <- runExperiments(id, 1, true, "127.0.0.1:0") }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
				t.Fatalf("-run %s: err = %v, want unknown experiment", id, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("-run %s -admin: no error within 2s", id)
		}
	}
}

// TestAllSelectsTheFigures pins what -run all covers: the paper's figures,
// not the soak, the matrix or the demos.
func TestAllSelectsTheFigures(t *testing.T) {
	var got []string
	for _, e := range selectExperiments("all") {
		got = append(got, e.ids[0])
	}
	want := "fig7a fig7b fig7cd table2 fig7e fig7f fig8ab fig8cde fig8f"
	if strings.Join(got, " ") != want {
		t.Fatalf("all = %v, want %s", got, want)
	}
	if sel := selectExperiments("fig8d"); len(sel) != 1 || sel[0].ids[0] != "fig8cde" {
		t.Fatalf("alias fig8d resolved to %d experiments", len(sel))
	}
}
