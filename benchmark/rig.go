package main

import (
	"fmt"
	"hash/crc32"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stacksync/internal/chunker"
	"stacksync/internal/client"
	"stacksync/internal/mq"
	"stacksync/internal/objstore"
	"stacksync/internal/omq"
)

// opTimeout is how long an operation may take to reach every peer before it
// counts as failed.
const opTimeout = 10 * time.Second

// slaLimit is the paper's sync-time SLA (§5.3).
const slaLimit = 450 * time.Millisecond

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// device is one logical StackSync device driven from this process.
type device struct {
	slot    int // index over all devices of the rig
	ws, idx int
	mobile  bool
	id      string
	broker  *omq.Broker
	client  *client.Client
	tap     *tapMQ // nil unless traced or mobile
	// A device indexes one file at a time, in the order the ops were handed
	// out: turn is the ticket now being served.
	mu      sync.Mutex
	queued  *sync.Cond
	tickets uint64 // next ticket to hand out
	turn    uint64
	stop    chan struct{}
	done    chan struct{}
}

// ticket reserves the device's next turn. Call it in the order the ops are
// to be sent.
func (d *device) ticket() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tickets++
	return d.tickets - 1
}

func (d *device) await(ticket uint64) {
	d.mu.Lock()
	for d.turn != ticket {
		d.queued.Wait()
	}
	d.mu.Unlock()
}

func (d *device) next() {
	d.mu.Lock()
	d.turn++
	d.mu.Unlock()
	d.queued.Broadcast()
}

// rig is one assembled deployment: the server child plus every device.
type rig struct {
	w       *workload
	traced  bool
	dataDir string
	srv     *serverProc
	conns   []*mq.Client
	store   *objstore.Metered
	devs    []*device
	rec     *recorder
	tr      *tracker
	// setupTook covers spawn, workspace creation, connections and device
	// start (each device's start-up pull included).
	setupTook time.Duration
	// finalResyncMS are the end-of-run resync times, one per workspace.
	finalResyncMS []float64
}

func brokerConns() int { return runtime.NumCPU() }

// setUp spawns the server and starts every device of w. shipped, when set,
// is the path of a stacksync-server binary to run in place of the child.
func setUp(w *workload, dataDir string, traced bool, shipped string) (*rig, error) {
	began := time.Now()
	r := &rig{w: w, traced: traced, dataDir: dataDir}
	if traced {
		r.rec = &recorder{}
	}
	var err error
	if shipped != "" {
		r.srv, err = startShipped(shipped, dataDir)
	} else {
		r.srv, err = startServer(dataDir, w.Workspaces, traced)
	}
	if err != nil {
		return nil, err
	}
	if err := r.connect(); err != nil {
		r.close()
		return nil, err
	}
	r.tr = newTracker(w)
	for ws := 0; ws < w.Workspaces; ws++ {
		for idx := 0; idx < w.Devices; idx++ {
			mobile := w.Mobile && idx == w.Devices-1
			d, err := r.startDevice(len(r.devs), ws, idx, mobile, fmt.Sprintf("%s-d%02d", workspaceID(ws), idx))
			if err != nil {
				r.close()
				return nil, fmt.Errorf("start device %d of %s: %w", idx, workspaceID(ws), err)
			}
			r.devs = append(r.devs, d)
		}
	}
	r.setupTook = time.Since(began)
	return r, nil
}

// connect opens the broker connections every device multiplexes over, and
// the chunk-store client.
func (r *rig) connect() error {
	for i := 0; i < brokerConns(); i++ {
		c, err := mq.Dial(r.srv.mqAddr)
		if err != nil {
			return err
		}
		r.conns = append(r.conns, c)
	}
	// Every device of a real deployment is its own process with its own HTTP
	// connection pool (two idle connections to the gateway). Here they share
	// this process's default transport, so give it the idle connections all
	// of them together would hold; otherwise most chunk requests would open
	// and close a TCP connection, which no real device does.
	t := http.DefaultTransport.(*http.Transport)
	t.MaxIdleConnsPerHost = max(2*r.w.Workspaces*r.w.Devices, http.DefaultMaxIdleConnsPerHost)
	t.MaxIdleConns = max(t.MaxIdleConnsPerHost, 100)
	r.store = objstore.NewMetered(objstore.NewHTTPStore(r.srv.httpURL, ""))
	return nil
}

func (r *rig) brokerPort() int {
	_, port, _ := net.SplitHostPort(r.srv.mqAddr)
	p, _ := strconv.Atoi(port)
	return p
}

func (r *rig) startDevice(slot, ws, idx int, mobile bool, id string) (*device, error) {
	d := &device{slot: slot, ws: ws, idx: idx, mobile: mobile, id: id,
		stop: make(chan struct{}), done: make(chan struct{})}
	d.queued = sync.NewCond(&d.mu)
	var m mq.MQ = r.conns[slot%len(r.conns)]
	if r.traced || mobile {
		d.tap = &tapMQ{MQ: m, rec: r.rec, dev: slot, idPrefix: fmt.Sprintf("c%d.", slot)}
		if mobile {
			d.tap.offline = new(atomic.Bool)
		}
		m = d.tap
	}
	var err error
	if d.broker, err = omq.NewBroker(m, omq.WithID(id)); err != nil {
		return nil, err
	}
	cfg := client.Config{UserID: benchUser, DeviceID: id, WorkspaceID: workspaceID(ws), Broker: d.broker, Storage: r.store}
	if r.traced {
		cfg.Chunker = tracedChunker{Chunker: chunker.NewFixed(), rec: r.rec, dev: slot}
		cfg.Storage = tracedStore{Store: r.store, rec: r.rec, dev: slot, prefix: "objstore."}
	}
	if d.client, err = client.NewClient(cfg); err != nil {
		_ = d.broker.Close()
		return nil, err
	}
	if err := d.client.Start(); err != nil {
		_ = d.broker.Close()
		return nil, err
	}
	if mobile {
		d.tap.offline.Store(true)
	}
	go d.observe(r)
	return d, nil
}

// observe timestamps the device's sync events as they happen. It is the
// benchmark's only view of when a version became visible on a device.
func (d *device) observe(r *rig) {
	defer close(d.done)
	for {
		select {
		case <-d.stop:
			return
		case e := <-d.client.Events():
			at := time.Now()
			if r.rec != nil && d.tap != nil && (e.Type == client.RemoteApplied || e.Type == client.LocalCommitted) {
				// The device handles one notification at a time, so the one
				// being applied is the newest delivered.
				if from := d.tap.lastNotify.Load(); from > 0 {
					r.rec.add(span{Name: "client.apply", Dev: d.slot, Key: e.Path, Start: from, End: at.UnixNano()})
				}
			}
			r.tr.onEvent(d, e, at)
		}
	}
}

func (d *device) shut() {
	close(d.stop)
	<-d.done
	_ = d.client.Close()
	_ = d.broker.Close()
}

// close stops every device, connection and the server, and deletes the data
// directory. It is safe on a partly built rig.
func (r *rig) close() {
	for _, d := range r.devs {
		d.shut()
	}
	r.devs = nil
	for _, c := range r.conns {
		_ = c.Close()
	}
	r.conns = nil
	if r.srv != nil {
		r.srv.stop()
		r.srv = nil
	}
	_ = os.RemoveAll(r.dataDir)
}

// refFile is what the benchmark expects a path to hold.
type refFile struct {
	version uint64
	live    bool
	size    int
	crc     uint32
}

type opKey struct {
	ws   int
	path string
}

// opState follows one operation from send to its arrival on every peer.
type opState struct {
	spec    opSpec
	version uint64
	bytes   int // size of the content handed to PutFile
	// t0 is when the op's clock starts: the due instant of an open-loop op,
	// else the moment PutFile was called.
	t0       time.Time
	sent     time.Time
	late     time.Duration // a driver goroutine took it up this long after it was due
	commitAt time.Time     // writer saw its own version committed
	syncAt   time.Time     // last stationary peer held the version
	own      bool
	seen     uint64 // peers (by device idx) that hold the version
	peers    int    // peers still missing it
	live     bool   // the path holds a file after the op
	failed   bool
	why      string
	done     chan struct{}
}

// tracker matches device events to in-flight operations.
type tracker struct {
	mu       sync.Mutex
	w        *workload
	pending  map[opKey]*opState
	finished []*opState
	ref      map[opKey]refFile // expected state, advanced when an op is sent
	acked    map[opKey]refFile // state of completed ops only
	// released is called (without the lock) when an op completes or fails.
	released func(*opState)
}

func newTracker(w *workload) *tracker {
	return &tracker{w: w, pending: map[opKey]*opState{}, ref: map[opKey]refFile{}, acked: map[opKey]refFile{}}
}

// inflight returns the unfinished op on a path, if any.
func (t *tracker) inflight(k opKey) *opState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pending[k]
}

// register starts following op. content is what the path will hold (nil for
// a removal).
func (t *tracker) register(op opSpec, content []byte, t0, sent time.Time) *opState {
	k := opKey{op.WS, op.Path}
	peers := t.w.Devices - 1
	if t.w.Mobile {
		peers--
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	next := refFile{version: t.ref[k].version + 1, live: content != nil, size: len(content), crc: crc32.Checksum(content, castagnoli)}
	t.ref[k] = next
	st := &opState{spec: op, version: next.version, bytes: len(content), live: next.live, t0: t0, sent: sent, peers: peers, done: make(chan struct{})}
	t.pending[k] = st
	return st
}

func (t *tracker) onEvent(d *device, e client.Event, at time.Time) {
	t.mu.Lock()
	st := t.pending[opKey{d.ws, e.Path}]
	if st == nil || e.Version < st.version {
		t.mu.Unlock()
		return
	}
	switch {
	case e.Type == client.ConflictResolved:
		t.mu.Unlock()
		t.fail(st, "conflict on "+e.Path)
		return
	case e.Type == client.LocalCommitted && d.idx == st.spec.Writer && !st.own:
		st.own, st.commitAt = true, at
	case e.Type == client.RemoteApplied && !d.mobile && d.idx != st.spec.Writer && st.seen&(1<<d.idx) == 0:
		st.seen |= 1 << d.idx
		st.peers--
		st.syncAt = at
	}
	complete := st.own && st.peers == 0
	if complete {
		t.finishLocked(st)
	}
	t.mu.Unlock()
	if complete {
		t.release(st)
	}
}

func (t *tracker) finishLocked(st *opState) {
	k := opKey{st.spec.WS, st.spec.Path}
	delete(t.pending, k)
	t.finished = append(t.finished, st)
	if !st.failed {
		t.acked[k] = refFile{version: st.version, live: st.live}
	}
	close(st.done)
}

func (t *tracker) release(st *opState) {
	if t.released != nil {
		t.released(st)
	}
}

// fail marks an op failed unless it already completed.
func (t *tracker) fail(st *opState, why string) {
	t.mu.Lock()
	if t.pending[opKey{st.spec.WS, st.spec.Path}] != st {
		t.mu.Unlock()
		return
	}
	st.failed, st.why = true, why
	t.finishLocked(st)
	t.mu.Unlock()
	t.release(st)
}

// expire fails every op sent more than opTimeout ago.
func (t *tracker) expire(now time.Time) {
	t.mu.Lock()
	var late []*opState
	for _, st := range t.pending {
		if now.Sub(st.sent) > opTimeout {
			late = append(late, st)
		}
	}
	t.mu.Unlock()
	for _, st := range late {
		t.fail(st, "timed out")
	}
}

func (t *tracker) outstanding() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.pending)
}

// superseded reports whether an op newer than version has been sent for the
// path: a removal already committed hides the version a check expected.
func (t *tracker) superseded(k opKey, version uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ref[k].version > version
}

// refCopy copies the expected state of every path.
func (t *tracker) refCopy() map[opKey]refFile {
	t.mu.Lock()
	defer t.mu.Unlock()
	ref := make(map[opKey]refFile, len(t.ref))
	for k, f := range t.ref {
		ref[k] = f
	}
	return ref
}

// ackedFor copies the completed state of one workspace.
func (t *tracker) ackedFor(ws int) map[string]refFile {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]refFile)
	for k, f := range t.acked {
		if k.ws == ws {
			out[k.path] = f
		}
	}
	return out
}

// send performs one operation on its writer device and starts following it.
// ticket is the device turn reserved for it. build makes the content the path
// will hold from what it holds now (nil for a removal). due is when the op was
// to be sent: its scheduled instant in an open loop, where the op's clock
// starts then; in a closed loop the instant its writer became free (zero for
// a writer's first op), which only the generator-lateness figure uses.
func (r *rig) send(op opSpec, ticket uint64, due time.Time, open bool, build func(base []byte) ([]byte, error)) {
	picked := time.Now()
	d := r.writer(op)
	d.await(ticket)
	defer d.next()
	// A device proposes versions from its own database, so an op on a path
	// must not be proposed before the previous one on that path is applied.
	if prev := r.tr.inflight(opKey{op.WS, op.Path}); prev != nil {
		<-prev.done
	}
	var base []byte
	if op.Kind == opOverwrite || op.Kind == opPrepend {
		base, _ = d.client.FileContent(op.Path)
	}
	content, err := build(base)
	if err != nil {
		panic(fmt.Sprintf("workload %s generated an inapplicable op: %v", r.w.Name, err))
	}
	sent := time.Now()
	t0 := sent
	if open {
		t0 = due
	}
	st := r.tr.register(op, content, t0, sent)
	if !due.IsZero() {
		st.late = picked.Sub(due)
	}
	if content == nil {
		err = d.client.RemoveFile(op.Path)
	} else {
		err = d.client.PutFile(op.Path, content)
	}
	end := time.Now()
	r.rec.add(span{Name: "client.put_file", Dev: d.slot, Key: op.Path, Start: sent.UnixNano(), End: end.UnixNano(), Bytes: int64(len(content)), Err: err != nil})
	if err != nil {
		r.tr.fail(st, err.Error())
	}
}

func (r *rig) writer(op opSpec) *device { return r.devs[op.WS*r.w.Devices+op.Writer] }

// resync has a device pull everything committed since its last pull and
// checks that it then holds every commit completed before the pull began. A
// mobile device is brought back on the air for it and, unless stayOnline,
// taken off again. It returns how long Resync took.
func (r *rig) resync(d *device, stayOnline bool) (time.Duration, error) {
	want := r.tr.ackedFor(d.ws)
	if d.mobile {
		d.tap.offline.Store(false)
	}
	began := time.Now()
	err := d.client.Resync()
	took := time.Since(began)
	if d.mobile && !stayOnline {
		d.tap.offline.Store(true)
	}
	if err != nil {
		return took, err
	}
	r.rec.add(span{Name: "client.resync", Dev: d.slot, Start: began.UnixNano(), End: began.Add(took).UnixNano()})
	for path, f := range want {
		v, ok := d.client.Version(path)
		if f.live && (!ok || v < f.version) && !r.tr.superseded(opKey{d.ws, path}, f.version) {
			return took, fmt.Errorf("%s: %s at v%d after resync, want v%d", d.id, path, v, f.version)
		}
	}
	return took, nil
}

// checkDevice compares everything a device holds with the reference.
func checkDevice(c *client.Client, id string, ws int, ref map[opKey]refFile) []string {
	var bad []string
	live := 0
	for k, f := range ref {
		if k.ws != ws {
			continue
		}
		data, ok := c.FileContent(k.path)
		switch {
		case f.live:
			live++
			if !ok {
				bad = append(bad, fmt.Sprintf("%s: %s missing", id, k.path))
			} else if len(data) != f.size || crc32.Checksum(data, castagnoli) != f.crc {
				bad = append(bad, fmt.Sprintf("%s: %s has wrong content (%d bytes, want %d)", id, k.path, len(data), f.size))
			}
		case ok:
			bad = append(bad, fmt.Sprintf("%s: %s still present after its removal", id, k.path))
		}
	}
	if n := len(c.Paths()); n != live {
		bad = append(bad, fmt.Sprintf("%s: holds %d files, want %d", id, n, live))
	}
	return bad
}

// verifyConverged resyncs the last device of every workspace (the mobile one
// where there is one), then checks every device against the reference and
// returns the violations.
func (r *rig) verifyConverged() []string {
	ref := r.tr.refCopy()
	var bad []string
	for _, d := range r.devs {
		if d.idx == r.w.Devices-1 {
			took, err := r.resync(d, true)
			if err != nil {
				bad = append(bad, err.Error())
				continue
			}
			r.finalResyncMS = append(r.finalResyncMS, ms(took))
		}
		bad = append(bad, checkDevice(d.client, d.id, d.ws, ref)...)
	}
	return bad
}

// restartResult is what the kill -9 + restart check measured.
type restartResult struct {
	readyMS       float64 // exec → serving again
	recoverPerSec float64 // WAL records replayed per second
	walRecords    int
	violations    []string
}

// killAndVerify is the durability check: kill -9 the server, restart it on
// the same data directory, and require a fresh device of every workspace to
// see every file the run was acknowledged. Devices of the run are closed
// first; their connections die with the server.
func (r *rig) killAndVerify() (restartResult, error) {
	var res restartResult
	ref := r.tr.refCopy()

	r.srv.kill()
	for _, d := range r.devs {
		d.shut()
	}
	r.devs = nil
	for _, c := range r.conns {
		_ = c.Close()
	}
	r.conns = nil

	wal := filepath.Join(r.dataDir, "metadata.wal")
	if data, err := os.ReadFile(wal); err == nil {
		for _, b := range data {
			if b == '\n' {
				res.walRecords++
			}
		}
	}
	var err error
	r.traced, r.rec = false, nil
	if r.srv, err = startServer(r.dataDir, r.w.Workspaces, false); err != nil {
		return res, fmt.Errorf("restart after kill -9: %w", err)
	}
	res.readyMS = ms(r.srv.spawnTook)
	if r.srv.recoverNS > 0 {
		res.recoverPerSec = float64(res.walRecords) / (float64(r.srv.recoverNS) / 1e9)
	}
	if err := r.connect(); err != nil {
		return res, err
	}

	// One fresh device per workspace, started nproc at a time.
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan int)
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ws := range next {
				id := fmt.Sprintf("%s-fresh", workspaceID(ws))
				d, err := r.startDevice(ws, ws, r.w.Devices, false, id)
				var bad []string
				if err != nil {
					bad = []string{fmt.Sprintf("%s: %v", id, err)}
				} else {
					bad = checkDevice(d.client, id, ws, ref)
				}
				mu.Lock()
				res.violations = append(res.violations, bad...)
				if d != nil {
					r.devs = append(r.devs, d)
				}
				mu.Unlock()
			}
		}()
	}
	for ws := 0; ws < r.w.Workspaces; ws++ {
		next <- ws
	}
	close(next)
	wg.Wait()
	return res, nil
}
