package objstore_test

import (
	"net/http/httptest"
	"testing"

	"stacksync/internal/clock"
	"stacksync/internal/faults"
	"stacksync/internal/objstore"
	"stacksync/internal/objstore/storetest"
)

// TestStoreConformance pins the Store contract across every implementation
// in this package: the two backends, every wrapper (each configured so
// operations succeed — zero-cost simulation, a no-fault plan), and the
// remote gateway pair over both backends. The client's breakerStore runs the
// same suite from its own package.
func TestStoreConformance(t *testing.T) {
	factories := map[string]func(t *testing.T) objstore.Store{
		"memory": func(t *testing.T) objstore.Store { return objstore.NewMemory() },
		"disk": func(t *testing.T) objstore.Store {
			d, err := objstore.NewDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"metered": func(t *testing.T) objstore.Store {
			return objstore.NewMetered(objstore.NewMemory())
		},
		"simulated": func(t *testing.T) objstore.Store {
			return objstore.NewSimulated(objstore.NewMemory(), clock.NewReal(), 0, 0)
		},
		"faulty": func(t *testing.T) objstore.Store {
			return objstore.NewFaulty(objstore.NewMemory(), faults.NewPlan(faults.Config{}), "objstore", nil)
		},
		"http": func(t *testing.T) objstore.Store {
			srv := httptest.NewServer(objstore.NewHandler(objstore.NewMemory(), "gw-token"))
			t.Cleanup(srv.Close)
			return objstore.NewHTTPStore(srv.URL, "gw-token")
		},
		// The composition the shipped server and the benchmark run.
		"http-disk": func(t *testing.T) objstore.Store {
			d, err := objstore.NewDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(objstore.NewHandler(d, "gw-token"))
			t.Cleanup(srv.Close)
			return objstore.NewHTTPStore(srv.URL, "gw-token")
		},
	}
	for name, mk := range factories {
		t.Run(name, func(t *testing.T) { storetest.Run(t, mk) })
	}
}
