package objstore

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"

	"stacksync/internal/obs"
)

// BenchmarkGatewayBatch times one batch round trip, HTTPStore to Handler to
// a temp-dir Disk over loopback, for {put,get} x {1x4KB, 4x512KB}. Besides
// ns/op and allocs/op (client and gateway together) it reports body_B/op,
// the request plus response body bytes the gateway saw per call;
// syscalls/op, the read and write system calls of the whole process,
// client and gateway, per call; and gw_reads/op, the Read calls on the
// gateway's accepted connections per call. It uses only the Store surface,
// so the file compiles against any gateway revision.
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
		srv := httptest.NewUnstartedServer(countBodies(NewHandler(disk, ""), &bodyBytes))
		ln := &countingListener{Listener: srv.Listener}
		srv.Listener = ln
		srv.Start()
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
				reads, calls := ln.reads.Load(), obs.ProcessIO("syscr")+obs.ProcessIO("syscw")
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
				b.StopTimer()
				calls = obs.ProcessIO("syscr") + obs.ProcessIO("syscw") - calls
				b.ReportMetric(float64(bodyBytes.Load())/float64(b.N), "body_B/op")
				b.ReportMetric(float64(calls)/float64(b.N), "syscalls/op")
				b.ReportMetric(float64(ln.reads.Load()-reads)/float64(b.N), "gw_reads/op")
			})
		}
		srv.Close()
	}
}

// BenchmarkGatewayHotGet is the read side of one fan-out at the storage
// gateway: one object is put through HTTPStore → Handler → Disk over
// loopback, then each iteration gets it 23 times, once per other device of
// a 24-device workspace. syscalls/get counts the read and write system calls
// of the whole process, client and gateway, per get. Both objects, a fresh
// 4KB chunk and a fresh 512KB one, are still in the chunk log's mapped
// window, so Disk copies them from there without a read call; what remains
// is the HTTP round trip's.
func BenchmarkGatewayHotGet(b *testing.B) {
	const readers = 23
	ctx := context.Background()
	for _, size := range []int{4 << 10, 512 << 10} {
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			disk, err := NewDisk(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			srv := httptest.NewServer(NewHandler(disk, ""))
			defer srv.Close()
			s := NewHTTPStore(srv.URL, "")
			if err := s.EnsureContainer(ctx, "c"); err != nil {
				b.Fatal(err)
			}
			data := make([]byte, size)
			rand.New(rand.NewSource(1)).Read(data)
			if err := s.PutMulti(ctx, "c", []Object{{Key: "chunk", Data: data}}); err != nil {
				b.Fatal(err)
			}
			keys := []string{"chunk"}
			calls := obs.ProcessIO("syscr") + obs.ProcessIO("syscw")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < readers; r++ {
					if _, err := s.GetMulti(ctx, "c", keys); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			calls = obs.ProcessIO("syscr") + obs.ProcessIO("syscw") - calls
			b.ReportMetric(float64(calls)/float64(b.N*readers), "syscalls/get")
		})
	}
}

// countingListener counts the connections it accepts and the Read calls on
// them.
type countingListener struct {
	net.Listener
	accepts, reads atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.accepts.Add(1)
	return countingConn{c, &l.reads}, nil
}

type countingConn struct {
	net.Conn
	reads *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
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
