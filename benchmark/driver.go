package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"stacksync/internal/objstore"
)

// counters are the cumulative readings taken at both ends of the window.
type counters struct {
	brokerBytes uint64 // both directions, every device connection
	storage     objstore.Traffic
	cpuS        float64 // server process user+system
	ioCalls     uint64  // read and write system calls the server made
	diskBytes   uint64  // bytes the server caused to be written to storage
}

func (r *rig) readCounters() (counters, error) {
	sent, received, err := socketBytes(r.brokerPort())
	if err != nil {
		return counters{}, err
	}
	cpu, err := r.srv.cpuSeconds()
	if err != nil {
		return counters{}, err
	}
	ioCalls, diskBytes, err := r.srv.ioCounters()
	if err != nil {
		return counters{}, err
	}
	return counters{brokerBytes: sent + received, storage: r.store.Traffic(), cpuS: cpu, ioCalls: ioCalls, diskBytes: diskBytes}, nil
}

// measurement is what one driven window produced, before any arithmetic.
type measurement struct {
	began         time.Time // warm-up started
	start, end    time.Time // the measured window
	before, after counters
	rssMB         float64
	ops           []*opState // every finished op, warm-up and drain included
	resyncMS      []float64  // mobile reconnects inside the window
	problems      []string   // mobile convergence failures
}

// drivers is how many goroutines generate load: one per CPU, like the broker
// connections. Devices run their own goroutines; these only call PutFile.
func drivers() int { return runtime.NumCPU() }

// drive runs warm-up plus the measured window of p against the rig and
// waits for every outstanding operation to finish or time out.
func (r *rig) drive(p *plan, warm, window time.Duration) (*measurement, error) {
	m := &measurement{began: time.Now()}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Closed loop: stopped ends the issuing of ops, closing wakes idle drivers.
	var stopped atomic.Bool
	closing := make(chan struct{})

	sweepDone := make(chan struct{})
	go func() {
		defer close(sweepDone)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				r.tr.expire(now)
			}
		}
	}()

	epoch := m.began.Add(warm) // start of the measured window
	if r.w.Closed {
		// One token per workspace: whoever holds it sends that workspace's
		// next op, and the op's completion puts it back.
		type token struct {
			ws   int
			free time.Time // when the workspace's previous op completed
		}
		ready := make(chan token, r.w.Workspaces)
		r.tr.released = func(st *opState) {
			if !stopped.Load() {
				ready <- token{st.spec.WS, time.Now()}
			}
		}
		next := make([]int, r.w.Workspaces)
		for ws := 0; ws < r.w.Workspaces; ws++ {
			ready <- token{ws: ws}
		}
		for g := 0; g < drivers(); g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-closing:
						return
					case tk := <-ready:
						if stopped.Load() {
							return
						}
						op := p.closed(tk.ws, next[tk.ws])
						next[tk.ws]++
						r.send(op, r.writer(op).ticket(), tk.free, false, func(base []byte) ([]byte, error) { return p.content(op, base) })
					}
				}
			}()
		}
	} else {
		var mu sync.Mutex
		idx := 0
		for g := 0; g < drivers(); g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					// Content is built and the device turn reserved here, in
					// list order: trace ops depend on the ones before them.
					mu.Lock()
					if idx == len(p.open) {
						mu.Unlock()
						return
					}
					op := p.open[idx]
					idx++
					content, err := p.content(op, nil)
					ticket := r.writer(op).ticket()
					mu.Unlock()
					due := epoch.Add(op.Due)
					time.Sleep(time.Until(due))
					r.send(op, ticket, due, true, func([]byte) ([]byte, error) { return content, err })
				}
			}()
		}
	}

	var mobileDone chan struct{}
	if r.w.Mobile {
		mobileDone = make(chan struct{})
		go func() {
			defer close(mobileDone)
			r.cycleMobiles(m, epoch, window)
		}()
	}

	var err error
	time.Sleep(time.Until(epoch))
	m.start = time.Now()
	if m.before, err = r.readCounters(); err != nil {
		return nil, err
	}
	time.Sleep(time.Until(epoch.Add(window)))
	m.end = time.Now()
	if m.after, err = r.readCounters(); err != nil {
		return nil, err
	}
	if m.rssMB, err = r.srv.peakRSSMB(); err != nil {
		return nil, err
	}

	stopped.Store(true)
	close(closing)
	wg.Wait()
	for deadline := time.Now().Add(opTimeout + time.Second); r.tr.outstanding() > 0 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if mobileDone != nil {
		<-mobileDone
	}
	close(stop)
	<-sweepDone
	r.tr.mu.Lock()
	m.ops = append(m.ops, r.tr.finished...)
	left := len(r.tr.pending)
	r.tr.mu.Unlock()
	if left > 0 {
		m.problems = append(m.problems, fmt.Sprintf("%d operations never finished", left))
	}
	return m, nil
}

// cycleMobiles reconnects the workspaces' mobile devices in turn, so that
// each is back every mobileEvery and the reconnects are spread evenly.
func (r *rig) cycleMobiles(m *measurement, epoch time.Time, window time.Duration) {
	var mobiles []*device
	for _, d := range r.devs {
		if d.mobile {
			mobiles = append(mobiles, d)
		}
	}
	step := mobileEvery / time.Duration(len(mobiles))
	for i := 1; ; i++ {
		at := epoch.Add(time.Duration(i) * step)
		if at.After(epoch.Add(window)) {
			return
		}
		time.Sleep(time.Until(at))
		took, err := r.resync(mobiles[i%len(mobiles)], false)
		if err != nil {
			m.problems = append(m.problems, err.Error())
			continue
		}
		m.resyncMS = append(m.resyncMS, ms(took))
	}
}
