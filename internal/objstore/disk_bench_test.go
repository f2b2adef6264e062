package objstore

import (
	"fmt"
	"math/rand"
	"testing"

	"stacksync/internal/obs"
)

// BenchmarkDiskPut puts one fresh object per iteration, a batch of one as
// a small file's upload is, at 1K, 4K and 512K. Besides ns/op it reports
// write_B/op, the bytes the process caused to be written to storage
// (write_bytes of /proc/self/io, charged as page-cache pages are dirtied),
// syscw/op, its write-family system calls, and minflt/op, its minor page
// faults: the price of storing through the log's mapped tail, about one per
// new page.
func BenchmarkDiskPut(b *testing.B) {
	for _, size := range []int{1 << 10, 4 << 10, 512 << 10} {
		b.Run(fmt.Sprintf("size=%dK", size>>10), func(b *testing.B) {
			d, err := NewDisk(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			if err := d.EnsureContainer(ctx, "c"); err != nil {
				b.Fatal(err)
			}
			data := make([]byte, size)
			rand.New(rand.NewSource(1)).Read(data)
			keys := make([]string, b.N)
			for i := range keys {
				keys[i] = fmt.Sprintf("%064x", i)
			}
			wrote, calls, faults := obs.ProcessIO("write_bytes"), obs.ProcessIO("syscw"), obs.MinorFaults()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.PutMulti(ctx, "c", []Object{{Key: keys[i], Data: data}}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(obs.ProcessIO("write_bytes")-wrote)/float64(b.N), "write_B/op")
			b.ReportMetric(float64(obs.ProcessIO("syscw")-calls)/float64(b.N), "syscw/op")
			b.ReportMetric(float64(obs.MinorFaults()-faults)/float64(b.N), "minflt/op")
		})
	}
}

// BenchmarkDiskOpen is the store's restart-to-ready time: NewDisk on a log
// of 10^4 or 10^5 1 KB objects, which it replays into the index.
func BenchmarkDiskOpen(b *testing.B) {
	for _, n := range []int{1e4, 1e5} {
		b.Run(fmt.Sprintf("objects=1e%d", len(fmt.Sprint(n))-1), func(b *testing.B) {
			dir := b.TempDir()
			d, err := NewDisk(dir)
			if err != nil {
				b.Fatal(err)
			}
			if err := d.EnsureContainer(ctx, "c"); err != nil {
				b.Fatal(err)
			}
			data := make([]byte, 1<<10)
			rand.New(rand.NewSource(1)).Read(data)
			batch := make([]Object, 100)
			for i := 0; i < n; i += len(batch) {
				for j := range batch {
					batch[j] = Object{Key: fmt.Sprintf("%064x", i+j), Data: data}
				}
				if err := d.PutMulti(ctx, "c", batch); err != nil {
					b.Fatal(err)
				}
			}
			_ = d.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := NewDisk(dir)
				if err != nil {
					b.Fatal(err)
				}
				_ = d.Close()
			}
		})
	}
}
