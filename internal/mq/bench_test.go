package mq

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"stacksync/internal/obs"
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
// is the only file it writes), minflt/msg its minor page faults and ns/msg
// the time from publish to last ack. The journal stores every record
// through a mapping of its tail, so writes/msg is 0 and a fault comes with
// each new page the records reach (DESIGN.md §18, §20).
func BenchmarkJournalFanout(b *testing.B) {
	for _, queues := range []int{1, 24} {
		b.Run(fmt.Sprintf("queues=%d", queues), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "bench.journal")
			br, err := RecoverBroker(path)
			if err != nil {
				b.Fatal(err)
			}
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
			writes, faults := processWrites(), obs.MinorFaults()
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
			writes, faults = processWrites()-writes, obs.MinorFaults()-faults
			if err := br.Close(); err != nil {
				b.Fatal(err)
			}
			consumers.Wait()
			info, err := os.Stat(path)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(info.Size())/float64(b.N), "journalB/msg")
			b.ReportMetric(float64(writes)/float64(b.N), "writes/msg")
			b.ReportMetric(float64(faults)/float64(b.N), "minflt/msg")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/msg")
		})
	}
}

// BenchmarkNetworkFanoutAck is the ack path's layer number over real
// sockets: 24 consumers on loopback, each consuming (prefetch 1) its own
// queue bound to a fanout exchange of a journalled broker behind a Server.
// conns=24 gives every consumer its own Client; conns=2 multiplexes the 24
// over two, the shape of a benchmark rig whose devices share connections.
// Each iteration publishes one persistent 1 KB message in-process and waits
// until every consumer has acked it. syscalls/msg counts the read and write
// system calls of the whole process, clients and server, per message;
// frames/write is how many frames the server's connection writes carried
// on average. journalWrites/msg is how many more write calls a persistent
// fan-out costs than the same number of transient ones, which the journal
// never sees: 0, since the journal stores through a mapping.
func BenchmarkNetworkFanoutAck(b *testing.B) {
	for _, conns := range []int{24, 2} {
		b.Run(fmt.Sprintf("conns=%d", conns), func(b *testing.B) { benchNetworkFanoutAck(b, conns) })
	}
}

func benchNetworkFanoutAck(b *testing.B, conns int) {
	const queues = 24
	br, err := RecoverBroker(filepath.Join(b.TempDir(), "bench.journal"))
	if err != nil {
		b.Fatal(err)
	}
	defer br.Close()
	srv, err := NewServer(br, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	if err := br.DeclareExchange("fan", Fanout); err != nil {
		b.Fatal(err)
	}
	clients := make([]*Client, conns)
	for i := range clients {
		if clients[i], err = Dial(srv.Addr()); err != nil {
			b.Fatal(err)
		}
		defer clients[i].Close()
	}
	acked := make(chan struct{}, queues)
	for q := 0; q < queues; q++ {
		name := fmt.Sprintf("q%d", q)
		if err := br.DeclareQueue(name); err != nil {
			b.Fatal(err)
		}
		if err := br.BindQueue(name, "fan", ""); err != nil {
			b.Fatal(err)
		}
		sub, err := clients[q%conns].Subscribe(name, 1)
		if err != nil {
			b.Fatal(err)
		}
		go func() {
			for d := range sub.Deliveries() {
				_ = d.Ack()
				acked <- struct{}{}
			}
		}()
	}
	payload := make([]byte, 1024)
	fanout := func(persistent bool) {
		for i := 0; i < b.N; i++ {
			if err := br.Publish("fan", "", Message{Body: payload, Persistent: persistent}); err != nil {
				b.Fatal(err)
			}
			for q := 0; q < queues; q++ {
				<-acked
			}
		}
		for _, cli := range clients { // the server has handled every ack
			if err := cli.Ping(); err != nil {
				b.Fatal(err)
			}
		}
	}
	transientWrites := processWrites()
	fanout(false)
	transientWrites = processWrites() - transientWrites
	calls, writes := obs.ProcessIO("syscr")+obs.ProcessIO("syscw"), processWrites()
	srvWrites, srvFrames := srv.writes.Load(), srv.frames.Load()
	b.ResetTimer()
	fanout(true)
	b.StopTimer()
	calls = obs.ProcessIO("syscr") + obs.ProcessIO("syscw") - calls
	writes = processWrites() - writes
	srvWrites, srvFrames = srv.writes.Load()-srvWrites, srv.frames.Load()-srvFrames
	b.ReportMetric(float64(calls)/float64(b.N), "syscalls/msg")
	b.ReportMetric(float64(srvFrames)/float64(srvWrites), "frames/write")
	b.ReportMetric(float64(writes-transientWrites)/float64(b.N), "journalWrites/msg")
}

// processWrites reads this process's write-syscall count from /proc.
func processWrites() int64 { return obs.ProcessIO("syscw") }
