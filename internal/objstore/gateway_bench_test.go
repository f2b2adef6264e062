package objstore

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
)

// BenchmarkGatewayBatch times one batch round trip, HTTPStore to Handler to
// a temp-dir Disk over loopback, for {put,get} x {1x4KB, 4x512KB}. Besides
// ns/op and allocs/op (client and gateway together) it reports body_B/op:
// request plus response body bytes the gateway saw per call. It uses only
// the Store surface, so the file compiles against any gateway revision.
func BenchmarkGatewayBatch(b *testing.B) {
	ctx := context.Background()
	for _, shape := range []struct {
		name    string
		n, size int
	}{{"1x4KB", 1, 4 << 10}, {"4x512KB", 4, 512 << 10}} {
		disk, err := NewDisk(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		var bodyBytes atomic.Int64
		srv := httptest.NewServer(countBodies(NewHandler(disk, ""), &bodyBytes))
		s := NewHTTPStore(srv.URL, "")
		if err := s.EnsureContainer(ctx, "c"); err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		objs := make([]Object, shape.n)
		keys := make([]string, shape.n)
		for i := range objs {
			keys[i] = "chunk-" + strconv.Itoa(i)
			objs[i] = Object{Key: keys[i], Data: make([]byte, shape.size)}
			rng.Read(objs[i].Data)
		}
		if err := s.PutMulti(ctx, "c", objs); err != nil {
			b.Fatal(err)
		}
		for _, op := range []string{"put", "get"} {
			b.Run(op+"/"+shape.name, func(b *testing.B) {
				b.ReportAllocs()
				bodyBytes.Store(0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					if op == "put" {
						err = s.PutMulti(ctx, "c", objs)
					} else {
						_, err = s.GetMulti(ctx, "c", keys)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(bodyBytes.Load())/float64(b.N), "body_B/op")
			})
		}
		srv.Close()
	}
}

// countBodies adds the request and response body bytes h handles to n.
func countBodies(h http.Handler, n *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = countingBody{r.Body, n}
		h.ServeHTTP(countingWriter{w, n}, r)
	})
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (c countingBody) Read(p []byte) (int, error) {
	k, err := c.ReadCloser.Read(p)
	c.n.Add(int64(k))
	return k, err
}

type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	c.n.Add(int64(len(p)))
	return c.ResponseWriter.Write(p)
}
