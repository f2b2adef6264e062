package mq

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func BenchmarkPublishConsumeAck(b *testing.B) {
	br := NewBroker()
	defer br.Close()
	if err := br.DeclareQueue("bench"); err != nil {
		b.Fatal(err)
	}
	sub, err := br.Subscribe("bench", 32)
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for d := range sub.Deliveries() {
			_ = d.Ack()
		}
	}()
	payload := make([]byte, 1024)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := br.Publish("", "bench", Message{Body: payload}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = sub.Cancel()
	<-done
}

func BenchmarkFanoutPublish(b *testing.B) {
	for _, queues := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("queues=%d", queues), func(b *testing.B) {
			br := NewBroker()
			defer br.Close()
			if err := br.DeclareExchange("fan", Fanout); err != nil {
				b.Fatal(err)
			}
			for q := 0; q < queues; q++ {
				name := fmt.Sprintf("q%d", q)
				if err := br.DeclareQueue(name); err != nil {
					b.Fatal(err)
				}
				if err := br.BindQueue(name, "fan", ""); err != nil {
					b.Fatal(err)
				}
			}
			payload := make([]byte, 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := br.Publish("fan", "", Message{Body: payload}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkNetworkRoundTrip(b *testing.B) {
	br := NewBroker()
	defer br.Close()
	srv, err := NewServer(br, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	if err := cli.DeclareQueue("rt"); err != nil {
		b.Fatal(err)
	}
	sub, err := cli.Subscribe("rt", 1)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cli.Publish("", "rt", Message{Body: payload}); err != nil {
			b.Fatal(err)
		}
		d := <-sub.Deliveries()
		if err := d.Ack(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalFanout is the journal's layer number: one persistent 1 KB
// message published to a fanout exchange, delivered to and acked by every
// bound queue, through a journalled broker. journalB/msg is what the journal
// file grew by, writes/msg the write(2) calls the process made (the journal
// is the only file it writes), ns/msg the time from publish to last ack.
func BenchmarkJournalFanout(b *testing.B) {
	for _, queues := range []int{1, 24} {
		b.Run(fmt.Sprintf("queues=%d", queues), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "bench.journal")
			j, err := OpenJournal(path)
			if err != nil {
				b.Fatal(err)
			}
			br := NewBroker(WithJournal(j))
			if err := br.DeclareExchange("fan", Fanout); err != nil {
				b.Fatal(err)
			}
			acked := make(chan struct{}, queues)
			var consumers sync.WaitGroup
			for q := 0; q < queues; q++ {
				name := fmt.Sprintf("q%d", q)
				if err := br.DeclareQueue(name); err != nil {
					b.Fatal(err)
				}
				if err := br.BindQueue(name, "fan", ""); err != nil {
					b.Fatal(err)
				}
				sub, err := br.Subscribe(name, 1)
				if err != nil {
					b.Fatal(err)
				}
				consumers.Add(1)
				go func() {
					defer consumers.Done()
					for d := range sub.Deliveries() {
						_ = d.Ack()
						acked <- struct{}{}
					}
				}()
			}
			payload := make([]byte, 1024)
			writes := processWrites()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := br.Publish("fan", "", Message{Body: payload, Persistent: true}); err != nil {
					b.Fatal(err)
				}
				for q := 0; q < queues; q++ {
					<-acked
				}
			}
			b.StopTimer()
			if err := br.Close(); err != nil {
				b.Fatal(err)
			}
			consumers.Wait()
			writes = processWrites() - writes
			info, err := os.Stat(path)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(info.Size())/float64(b.N), "journalB/msg")
			b.ReportMetric(float64(writes)/float64(b.N), "writes/msg")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/msg")
		})
	}
}

// processWrites reads this process's write-syscall count from /proc.
func processWrites() int64 {
	data, _ := os.ReadFile("/proc/self/io")
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "syscw: "); ok {
			n, _ := strconv.ParseInt(rest, 10, 64)
			return n
		}
	}
	return 0
}
