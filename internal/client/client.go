package client

import (
	"context"
	"errors"
	"fmt"
	"path"
	"strings"
	"sync"
	"time"

	"stacksync/internal/chunker"
	"stacksync/internal/clock"
	"stacksync/internal/core"
	"stacksync/internal/metastore"
	"stacksync/internal/objstore"
	"stacksync/internal/obs"
	"stacksync/internal/omq"
)

// EventType classifies client events.
type EventType int

const (
	// LocalCommitted: a change made on this device was accepted.
	LocalCommitted EventType = iota + 1
	// RemoteApplied: a change from another device was applied locally.
	RemoteApplied
	// ConflictResolved: this device lost a race; its content was preserved
	// as a conflict copy (Dropbox policy, §4.1).
	ConflictResolved
)

// Event reports a sync outcome to the embedding application.
type Event struct {
	Type EventType
	// Path of the affected file (for ConflictResolved, the conflict copy).
	Path    string
	Version uint64
	Status  metastore.Status
}

// Config assembles a Client.
type Config struct {
	// UserID authenticates against the SyncService's workspace list.
	UserID string
	// DeviceID must be unique per device of the user.
	DeviceID string
	// WorkspaceID selects the synced workspace.
	WorkspaceID string
	// Broker is this device's ObjectMQ endpoint.
	Broker *omq.Broker
	// Storage is the Storage back-end. Chunks live in the workspace's
	// container, which the client ensures on Start.
	Storage objstore.Store
	// Chunker cuts files (default: fixed 512 KB, §4.1).
	Chunker chunker.Chunker
	// Compression applied to chunks before upload (default gzip).
	Compression chunker.Compression
	// CallTimeout and CallRetries tune @SyncMethod calls (default 1500 ms, 5).
	CallTimeout time.Duration
	CallRetries int
	// EventBuffer caps the Events channel (default 256). When full, the
	// oldest unread events are dropped.
	EventBuffer int
	// Clock drives waits, retries and background loops (default wall clock).
	Clock clock.Clock
	// StoreRetries and StoreBackoff tune the retry loop around each storage
	// operation (defaults 3 extra attempts, 20 ms doubling).
	StoreRetries int
	StoreBackoff time.Duration
	// BreakerThreshold consecutive storage failures open the circuit for
	// BreakerCooldown (defaults 5, 500 ms). While open, chunk uploads queue
	// and drain in the background — commits stay available (degraded mode).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// TransferWorkers bounds the concurrent batch transfers of one upload or
	// download (default 4; 1 serializes the data path). TransferBatch caps
	// the chunks per batch request (default 16; 1 degenerates to per-chunk
	// calls). Together they turn the batch-first Store API into a pipeline:
	// workers overlap request latency, batches amortize per-request cost.
	TransferWorkers int
	TransferBatch   int
	// ChunkCacheBytes bounds the compressed-chunk LRU cache consulted before
	// any download (default 16 MB; negative disables caching).
	ChunkCacheBytes int64
	// RetransmitEvery re-proposes commits whose notification has not arrived
	// (default 1 s; the metadata store deduplicates replays). <0 disables.
	RetransmitEvery time.Duration
	// ResyncEvery periodically pulls GetChangesSince to repair losses the
	// push path missed (dropped notifications). Default 0 = disabled.
	ResyncEvery time.Duration
	// Tracer records a root span per commit and child spans at every hop
	// (storage puts/gets, notification application). nil disables tracing.
	// Pass the same tracer to the device's Broker so the trace continues
	// across the messaging layer.
	Tracer *obs.Tracer
	// Registry backs this device's metric series (upload-queue depth,
	// breaker state, watcher errors), labelled by device id. Defaults to a
	// private registry readable via Registry().
	Registry *obs.Registry
}

// Client is one StackSync device. It is driven programmatically through
// PutFile/RemoveFile (the benchmark path); DirWatcher in watcher.go layers a
// real directory on top.
type Client struct {
	cfg       Config
	container string
	clk       clock.Clock
	store     *breakerStore
	uploads   *uploadQueue
	flights   *flightGroup
	cache     *chunkCache
	tm        *transferMetrics
	sync      *omq.Proxy
	handler   *omq.BoundObject
	tracer    *obs.Tracer
	reg       *obs.Registry

	db     *localDB
	events chan Event
	stopCh chan struct{}
	bg     sync.WaitGroup

	mu               sync.Mutex
	pendingProposals map[pendingKey]pendingProposal
	started          bool
	closed           bool
	// syncVersion is the workspace version the local database is known to
	// reflect — the cursor sent with GetChangesSince so a resync ships only
	// the change-log tail (incremental resync, DESIGN §16). Guarded by mu.
	syncVersion uint64

	// Resync metrics: tail (incremental) vs full (cold start, or the cursor
	// fell behind the server's compaction watermark).
	resyncTail, resyncFull *obs.Counter
}

// Errors returned by the client.
var (
	ErrNotStarted = errors.New("client: not started")
	ErrNoFile     = errors.New("client: file not found")
)

// WorkspaceContainer names the storage container of a workspace. Chunks of a
// shared workspace live in one container all members can reach; dedup stays
// scoped to the workspace (never cross-user, per §4.1).
func WorkspaceContainer(workspaceID string) string { return "ws-" + workspaceID }

// NewClient validates the configuration and prepares a stopped client.
func NewClient(cfg Config) (*Client, error) {
	if cfg.UserID == "" || cfg.DeviceID == "" || cfg.WorkspaceID == "" {
		return nil, errors.New("client: UserID, DeviceID and WorkspaceID are required")
	}
	if cfg.Broker == nil || cfg.Storage == nil {
		return nil, errors.New("client: Broker and Storage are required")
	}
	if cfg.Chunker == nil {
		cfg.Chunker = chunker.NewFixed()
	}
	if cfg.Compression == 0 {
		cfg.Compression = chunker.Gzip
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = omq.DefaultTimeout
	}
	if cfg.CallRetries <= 0 {
		cfg.CallRetries = omq.DefaultRetries
	}
	if cfg.EventBuffer <= 0 {
		cfg.EventBuffer = 256
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.NewReal()
	}
	if cfg.RetransmitEvery == 0 {
		cfg.RetransmitEvery = time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.TransferWorkers <= 0 {
		if cfg.TransferWorkers < 0 {
			cfg.TransferWorkers = 1
		} else {
			cfg.TransferWorkers = defaultTransferWorkers
		}
	}
	if cfg.TransferBatch <= 0 {
		if cfg.TransferBatch < 0 {
			cfg.TransferBatch = 1
		} else {
			cfg.TransferBatch = defaultTransferBatch
		}
	}
	if cfg.ChunkCacheBytes == 0 {
		cfg.ChunkCacheBytes = defaultChunkCacheBytes
	}
	c := &Client{
		cfg:       cfg,
		container: WorkspaceContainer(cfg.WorkspaceID),
		clk:       cfg.Clock,
		uploads:   newUploadQueue(),
		flights:   newFlightGroup(),
		cache:     newChunkCache(cfg.ChunkCacheBytes),
		tracer:    cfg.Tracer,
		reg:       cfg.Registry,
		db:        newLocalDB(),
		events:    make(chan Event, cfg.EventBuffer),
		stopCh:    make(chan struct{}),
	}
	c.store = newBreakerStore(cfg.Storage, cfg.Clock,
		cfg.StoreRetries, cfg.StoreBackoff, cfg.BreakerThreshold, cfg.BreakerCooldown)
	c.tm = newTransferMetrics(c.reg, cfg.DeviceID)
	c.reg.GaugeFunc("client_chunk_cache_bytes", func() float64 {
		return float64(c.cache.bytes())
	}, "device", cfg.DeviceID)
	c.reg.GaugeFunc("client_upload_queue_depth", func() float64 {
		return float64(c.uploads.len())
	}, "device", cfg.DeviceID)
	c.reg.GaugeFunc("client_storage_breaker_open", func() float64 {
		if c.store.Open() {
			return 1
		}
		return 0
	}, "device", cfg.DeviceID)
	c.resyncTail = c.reg.Counter("client_resync_total", "device", cfg.DeviceID, "result", "tail")
	c.resyncFull = c.reg.Counter("client_resync_total", "device", cfg.DeviceID, "result", "full")
	return c, nil
}

// Registry returns the metrics registry backing this device's series.
func (c *Client) Registry() *obs.Registry { return c.reg }

// UploadQueueDepth reads this device's queued (deferred) chunk uploads from
// the registry gauge.
func UploadQueueDepth(reg *obs.Registry, deviceID string) int {
	v, _ := reg.GaugeValue("client_upload_queue_depth", "device", deviceID)
	return int(v)
}

// Start connects the device: it registers the notification handler for the
// workspace (so no push is missed), then fetches the workspace state with
// getChanges — the startup protocol of §4.2.1.
func (c *Client) Start() error {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return nil
	}
	c.started = true
	c.mu.Unlock()

	if err := c.store.EnsureContainer(context.Background(), c.container); err != nil {
		return fmt.Errorf("client: ensure container: %w", err)
	}
	c.sync = c.cfg.Broker.Lookup(core.ServiceOID,
		omq.WithTimeout(c.cfg.CallTimeout), omq.WithRetries(c.cfg.CallRetries))

	handler, err := c.cfg.Broker.Bind(core.WorkspaceOID(c.cfg.WorkspaceID), &notificationHandler{c: c})
	if err != nil {
		return fmt.Errorf("client: bind notifications: %w", err)
	}
	c.handler = handler

	// Bootstrap: bring the local database up to the committed state. A cold
	// start sends since=0, which the service answers with the full live state
	// plus the workspace version — the cursor later resyncs continue from.
	if err := c.pullChanges(); err != nil {
		_ = handler.Unbind()
		return fmt.Errorf("client: getChanges: %w", err)
	}

	// Background repair loops: drain deferred chunk uploads, retransmit
	// unacknowledged proposals, and (when configured) resync pulled state.
	c.bg.Add(1)
	go c.repairLoop()
	return nil
}

// uploadFlushEvery paces the deferred-upload drain attempts.
const uploadFlushEvery = 100 * time.Millisecond

// repairLoop is the client's self-healing heartbeat. Each tick it (1) drains
// queued chunk uploads once the store admits requests again, (2) re-proposes
// commits whose notification never came (the metadata store deduplicates
// replays, §4.2 at-least-once), and (3) optionally pulls GetChangesSince to
// repair dropped pushes.
func (c *Client) repairLoop() {
	defer c.bg.Done()
	var sinceResync, sinceRetransmit time.Duration
	for {
		select {
		case <-c.stopCh:
			return
		case <-c.clk.After(uploadFlushEvery):
		}
		c.flushUploads()
		sinceRetransmit += uploadFlushEvery
		if c.cfg.RetransmitEvery > 0 && sinceRetransmit >= c.cfg.RetransmitEvery {
			sinceRetransmit = 0
			c.retransmitPending()
		}
		sinceResync += uploadFlushEvery
		if c.cfg.ResyncEvery > 0 && sinceResync >= c.cfg.ResyncEvery {
			sinceResync = 0
			_ = c.Resync()
		}
	}
}

// flushUploads retries queued chunk uploads in FIFO order, draining a batch
// at a time and stopping at the first transient failure (the store is still
// down; keep order and try again later).
func (c *Client) flushUploads() {
	ctx := context.Background()
	for {
		fps := c.uploads.snapshot()
		if len(fps) == 0 {
			return
		}
		batch := make([]objstore.Object, 0, min(len(fps), c.cfg.TransferBatch))
		for _, fp := range fps[:min(len(fps), c.cfg.TransferBatch)] {
			if data, ok := c.uploads.get(fp); ok {
				batch = append(batch, objstore.Object{Key: fp, Data: data})
			}
		}
		if len(batch) == 0 {
			return
		}
		if err := c.store.PutMulti(ctx, c.container, batch); err != nil {
			if !permanentStoreErr(err) {
				return
			}
			// A poisoned batch: retry each chunk as a batch of one so the
			// offending chunk is dropped without stalling the rest of the queue.
			for _, o := range batch {
				if err := c.store.PutMulti(ctx, c.container, []objstore.Object{o}); err != nil {
					if permanentStoreErr(err) {
						c.uploads.remove(o.Key) // retrying can never succeed
						continue
					}
					return
				}
				c.uploads.remove(o.Key)
			}
			continue
		}
		c.tm.batchPuts.Add(uint64(len(batch)))
		for _, o := range batch {
			c.uploads.remove(o.Key)
		}
	}
}

// StorageDegraded reports whether the storage circuit breaker is open.
func (c *Client) StorageDegraded() bool { return c.store.Open() }

// retransmitPending re-proposes every stashed proposal older than the
// retransmit interval: its CommitRequest or notification was lost somewhere
// along the at-least-once pipeline.
func (c *Client) retransmitPending() {
	now := c.clk.Now()
	c.mu.Lock()
	var items []metastore.ItemVersion
	for key, p := range c.pendingProposals {
		if now.Sub(p.at) < c.cfg.RetransmitEvery {
			continue
		}
		p.at = now
		c.pendingProposals[key] = p
		items = append(items, p.item)
	}
	c.mu.Unlock()
	if len(items) == 0 {
		return
	}
	_ = c.propose(context.Background(), items)
}

// Resync pulls everything committed since the last synced workspace version
// and applies anything newer than the local database — the pull-based safety
// net under the push notifications. With a warm cursor this ships only the
// change-log tail; the service falls back to the full state (Full set in the
// reply) when the cursor predates the compaction watermark.
func (c *Client) Resync() error {
	if c.sync == nil {
		return ErrNotStarted
	}
	if err := c.pullChanges(); err != nil {
		return fmt.Errorf("client: resync: %w", err)
	}
	return nil
}

// SyncVersion reports the workspace version the last getChanges/resync pull
// was consistent at.
func (c *Client) SyncVersion() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.syncVersion
}

// pullChanges performs one GetChangesSince round trip from the current
// cursor and applies the reply: a log tail in commit order (tombstones
// included), or the full live state on cold start / compaction fallback.
// The cursor only advances, so a reply raced by a fresher pull is harmless.
func (c *Client) pullChanges() error {
	c.mu.Lock()
	since := c.syncVersion
	c.mu.Unlock()
	var reply core.ChangesReply
	if err := c.sync.Call("GetChangesSince", &reply, c.cfg.WorkspaceID, since); err != nil {
		return err
	}
	for _, item := range reply.Items {
		if err := c.applyRemote(context.Background(), item); err != nil {
			return fmt.Errorf("apply %s v%d: %w", item.ItemID, item.Version, err)
		}
	}
	if reply.Full {
		c.resyncFull.Inc()
	} else {
		c.resyncTail.Inc()
	}
	c.mu.Lock()
	if reply.Version > c.syncVersion {
		c.syncVersion = reply.Version
	}
	c.mu.Unlock()
	return nil
}

// Workspaces lists the workspaces this user can access (getWorkspaces).
func (c *Client) Workspaces() ([]metastore.Workspace, error) {
	if c.sync == nil {
		return nil, ErrNotStarted
	}
	var ws []metastore.Workspace
	if err := c.sync.Call("GetWorkspaces", &ws, c.cfg.UserID); err != nil {
		return nil, err
	}
	return ws, nil
}

// Events streams sync outcomes. Slow consumers lose oldest events.
func (c *Client) Events() <-chan Event { return c.events }

func (c *Client) emit(e Event) {
	select {
	case c.events <- e:
	default:
		// Drop oldest to keep the stream moving.
		select {
		case <-c.events:
		default:
		}
		select {
		case c.events <- e:
		default:
		}
	}
}

// PutFile indexes new content for path and proposes the commit: the Indexer
// flow of §4.1 — chunk, dedupe against the local database, upload only fresh
// chunks, then fire the asynchronous commitRequest.
func (c *Client) PutFile(filePath string, content []byte) error {
	if c.sync == nil {
		return ErrNotStarted
	}
	span, ctx := c.beginCommit()
	defer span.End()
	item, err := c.prepareItem(ctx, filePath, content)
	if err != nil {
		return err
	}
	return c.propose(ctx, []metastore.ItemVersion{item})
}

// beginCommit opens the root span of a locally initiated commit; everything
// downstream — chunk uploads, the commitRequest publish, queue dwell, handler
// execution, the metadata commit and the notification fan-out — records child
// spans under it. With tracing disabled both returns are inert.
func (c *Client) beginCommit() (*obs.SpanHandle, context.Context) {
	span := c.tracer.StartRoot("client.commit")
	return span, obs.ContextWith(context.Background(), span.Context())
}

// Change is one entry of a bundled commit (Table 2's file-bundling setup).
// Nil Content proposes a deletion.
type Change struct {
	Path    string
	Content []byte
	Delete  bool
}

// PutBatch indexes and uploads every change, then proposes all of them in a
// single commitRequest — the file-bundling behaviour whose control-traffic
// effect Table 2 measures.
func (c *Client) PutBatch(changes []Change) error {
	if c.sync == nil {
		return ErrNotStarted
	}
	span, ctx := c.beginCommit()
	defer span.End()
	items := make([]metastore.ItemVersion, 0, len(changes))
	for _, ch := range changes {
		if ch.Delete {
			item, err := c.prepareTombstone(ch.Path)
			if err != nil {
				return err
			}
			items = append(items, item)
			continue
		}
		item, err := c.prepareItem(ctx, ch.Path, ch.Content)
		if err != nil {
			return err
		}
		items = append(items, item)
	}
	return c.propose(ctx, items)
}

// prepareItem chunks, dedupes and uploads content, returning the proposed
// metadata version.
func (c *Client) prepareItem(ctx context.Context, filePath string, content []byte) (metastore.ItemVersion, error) {
	chunks, err := chunker.SplitBytes(c.cfg.Chunker, content)
	if err != nil {
		return metastore.ItemVersion{}, fmt.Errorf("client: chunk %s: %w", filePath, err)
	}
	_, fresh := chunker.Diff(chunks, c.db.hasChunk)
	if len(fresh) > 0 {
		// The pipelined upload path: compress, probe the server for chunks
		// some other device already stored, coalesce concurrent uploads of
		// the same fingerprint, and ship the rest in parallel batches.
		// Transient storage failures (or an open circuit) defer uploads to
		// the background queue and keep the commit available — metadata and
		// data flows are independent (§4), so a flaky store must not block
		// sync.
		putSpan := c.tracer.StartFromContext(ctx, "objstore.put")
		err := c.uploadChunks(ctx, fresh)
		putSpan.End()
		if err != nil {
			return metastore.ItemVersion{}, err
		}
	}
	c.db.addChunks(chunker.Fingerprints(fresh))

	status := metastore.Added
	var version uint64 = 1
	// New paths get a deterministic id derived from the path (so two
	// devices adding the same file collide into one item); known paths keep
	// their existing id, which may differ after a rename.
	itemID := ItemID(c.cfg.WorkspaceID, filePath)
	if prev, ok := c.db.lookup(filePath); ok {
		// Modifying a live file — or re-creating a removed one — continues
		// its version chain.
		status = metastore.Modified
		version = prev.version + 1
		itemID = prev.itemID
	}
	item := metastore.ItemVersion{
		Workspace: c.cfg.WorkspaceID,
		ItemID:    itemID,
		Path:      filePath,
		Version:   version,
		Status:    status,
		Size:      int64(len(content)),
		Chunks:    chunker.Fingerprints(chunks),
		Checksum:  chunker.Fingerprint(content),
		DeviceID:  c.cfg.DeviceID,
	}
	// Remember the content we proposed so a losing race can be preserved as
	// a conflict copy.
	c.stashProposed(item, content)
	return item, nil
}

func (c *Client) prepareTombstone(filePath string) (metastore.ItemVersion, error) {
	prev, ok := c.db.lookup(filePath)
	if !ok || prev.status == metastore.Deleted {
		return metastore.ItemVersion{}, fmt.Errorf("client: remove %s: %w", filePath, ErrNoFile)
	}
	item := metastore.ItemVersion{
		Workspace: c.cfg.WorkspaceID,
		ItemID:    prev.itemID,
		Path:      filePath,
		Version:   prev.version + 1,
		Status:    metastore.Deleted,
		DeviceID:  c.cfg.DeviceID,
	}
	c.stashProposed(item, nil)
	return item, nil
}

func (c *Client) propose(ctx context.Context, items []metastore.ItemVersion) error {
	req := core.CommitRequest{
		Workspace: c.cfg.WorkspaceID,
		DeviceID:  c.cfg.DeviceID,
		Items:     items,
	}
	return c.sync.AsyncCtx(ctx, "CommitRequest", req)
}

// MoveFile proposes a rename: a metadata-only version that changes the
// item's path while keeping its chunks, so no data travels to the Storage
// back-end.
func (c *Client) MoveFile(oldPath, newPath string) error {
	if c.sync == nil {
		return ErrNotStarted
	}
	prev, ok := c.db.lookup(oldPath)
	if !ok || prev.status == metastore.Deleted {
		return fmt.Errorf("client: move %s: %w", oldPath, ErrNoFile)
	}
	if _, exists := c.db.lookup(newPath); exists {
		return fmt.Errorf("client: move to %s: destination exists", newPath)
	}
	span, ctx := c.beginCommit()
	defer span.End()
	item := metastore.ItemVersion{
		Workspace: c.cfg.WorkspaceID,
		ItemID:    prev.itemID,
		Path:      newPath,
		Version:   prev.version + 1,
		Status:    metastore.Modified,
		Size:      prev.size,
		Chunks:    prev.chunks,
		Checksum:  prev.checksum,
		DeviceID:  c.cfg.DeviceID,
	}
	c.stashProposed(item, prev.content)
	return c.propose(ctx, []metastore.ItemVersion{item})
}

// RemoveFile proposes a tombstone version for path.
func (c *Client) RemoveFile(filePath string) error {
	if c.sync == nil {
		return ErrNotStarted
	}
	span, ctx := c.beginCommit()
	defer span.End()
	item, err := c.prepareTombstone(filePath)
	if err != nil {
		return err
	}
	return c.propose(ctx, []metastore.ItemVersion{item})
}

// pendingKey tracks proposals awaiting their notification, keyed by
// itemID/version; the entry holds the locally proposed content (so a losing
// race can be preserved as a conflict copy) and the full proposal (so a lost
// CommitRequest or notification can be retransmitted).
type pendingKey struct {
	itemID  string
	version uint64
}

type pendingProposal struct {
	content []byte
	item    metastore.ItemVersion
	at      time.Time // last (re)transmission
}

func (c *Client) stashProposed(item metastore.ItemVersion, content []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pendingProposals == nil {
		c.pendingProposals = make(map[pendingKey]pendingProposal)
	}
	c.pendingProposals[pendingKey{item.ItemID, item.Version}] = pendingProposal{
		content: content, item: item, at: c.clk.Now(),
	}
}

// ProposalPending reports whether a locally proposed commit for path is
// still awaiting its acknowledgement. Commit proposals are asynchronous, so
// between propose and ack the item is in pendingProposals but not yet in the
// database; callers reconciling "known locally but not in the database"
// (the directory watcher's remote-delete detection) must treat that window
// as in-flight, not as a remote deletion.
func (c *Client) ProposalPending(filePath string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.pendingProposals {
		if p.item.Path == filePath {
			return true
		}
	}
	return false
}

// takeProposed removes and returns the stashed proposal with v's ItemID and
// Version: a committed Item, or a conflict's key-only echo.
func (c *Client) takeProposed(v metastore.ItemVersion) (pendingProposal, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := pendingKey{v.ItemID, v.Version}
	p, ok := c.pendingProposals[key]
	if ok {
		delete(c.pendingProposals, key)
	}
	return p, ok
}

// FileContent returns the current synced content of path.
func (c *Client) FileContent(filePath string) ([]byte, bool) {
	it, ok := c.db.lookup(filePath)
	if !ok || it.status == metastore.Deleted {
		return nil, false
	}
	cp := make([]byte, len(it.content))
	copy(cp, it.content)
	return cp, true
}

// Version returns the synced version of path.
func (c *Client) Version(filePath string) (uint64, bool) {
	it, ok := c.db.lookup(filePath)
	if !ok || it.status == metastore.Deleted {
		return 0, false
	}
	return it.version, true
}

// Paths lists the live synced paths.
func (c *Client) Paths() []string { return c.db.paths() }

// WaitForVersion blocks until path reaches at least version or the timeout
// elapses — the hook the sync-time experiments use to measure when devices
// are in sync. It is event-driven (no polling): the database's change
// broadcast wakes it, so it works unchanged under a virtual clock.
func (c *Client) WaitForVersion(filePath string, version uint64, timeout time.Duration) error {
	ok := c.waitDB(timeout, func() bool {
		v, ok := c.Version(filePath)
		return ok && v >= version
	})
	if !ok {
		return fmt.Errorf("client: %s did not reach v%d within %v", filePath, version, timeout)
	}
	return nil
}

// WaitForGone blocks until path is deleted locally or the timeout elapses.
func (c *Client) WaitForGone(filePath string, timeout time.Duration) error {
	ok := c.waitDB(timeout, func() bool {
		_, ok := c.Version(filePath)
		return !ok
	})
	if !ok {
		return fmt.Errorf("client: %s still present after %v", filePath, timeout)
	}
	return nil
}

// waitDB blocks until pred holds or timeout elapses. The channel is grabbed
// before the predicate is checked, so a change racing the check is never
// missed — the broadcast channel closes and re-arms on every upsert.
func (c *Client) waitDB(timeout time.Duration, pred func() bool) bool {
	deadline := c.clk.Now().Add(timeout)
	for {
		ch := c.db.changeCh()
		if pred() {
			return true
		}
		remaining := deadline.Sub(c.clk.Now())
		if remaining <= 0 {
			return false
		}
		select {
		case <-ch:
		case <-c.clk.After(remaining):
			return pred()
		}
	}
}

// Close detaches the device from the workspace and stops the repair loop.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stopCh)
	c.bg.Wait()
	c.reg.Unregister("client_upload_queue_depth", "device", c.cfg.DeviceID)
	c.reg.Unregister("client_storage_breaker_open", "device", c.cfg.DeviceID)
	c.reg.Unregister("client_chunk_cache_bytes", "device", c.cfg.DeviceID)
	c.reg.Unregister("client_resync_total", "device", c.cfg.DeviceID, "result", "tail")
	c.reg.Unregister("client_resync_total", "device", c.cfg.DeviceID, "result", "full")
	for _, name := range transferMetricNames {
		c.reg.Unregister(name, "device", c.cfg.DeviceID)
	}
	if c.handler != nil {
		return c.handler.Unbind()
	}
	return nil
}

// notificationHandler is the remote object receiving workspace multicasts.
type notificationHandler struct {
	c *Client
}

// NotifyCommit applies a pushed CommitNotification (Fig. 6). The context
// carries the notification's trace, so the application work on every device
// shows up as a span of the originating commit.
func (h *notificationHandler) NotifyCommit(ctx context.Context, n core.CommitNotification) error {
	span := h.c.tracer.StartFromContext(ctx, "client.applyNotification")
	defer span.End()
	return h.c.handleNotification(obs.ContextWith(ctx, span.Context()), n)
}

func (c *Client) handleNotification(ctx context.Context, n core.CommitNotification) error {
	for _, r := range n.Results {
		mine := n.DeviceID == c.cfg.DeviceID
		switch {
		case r.Committed && mine:
			c.applyOwnCommit(r)
		case r.Committed:
			if err := c.applyRemote(ctx, r.Item); err != nil {
				return err
			}
			c.emit(Event{Type: RemoteApplied, Path: r.Item.Path, Version: r.Item.Version, Status: r.Item.Status})
		case mine:
			if err := c.resolveConflict(ctx, r); err != nil {
				return err
			}
		default:
			// Someone else's conflict; the authoritative version may still
			// be newer than ours, so apply it.
			if err := c.applyRemote(ctx, r.Item); err != nil {
				return err
			}
		}
	}
	return nil
}

// applyOwnCommit records a confirmed local proposal. Duplicate
// acknowledgements (notification replayed by an at-least-once hop, or a
// retransmitted proposal re-acked by the metadata store) are absorbed: the
// pending entry is cleared, but an already-current database is not touched,
// so no duplicate event fires. A committed result echoes no proposal key:
// the committed Item has the same ItemID and Version.
func (c *Client) applyOwnCommit(r CommitResultView) {
	p, _ := c.takeProposed(r.Item)
	if cur, have := c.db.lookupID(r.Item.ItemID); have && cur.version >= r.Item.Version {
		return
	}
	it := localItem{
		itemID:   r.Item.ItemID,
		path:     r.Item.Path,
		version:  r.Item.Version,
		status:   r.Item.Status,
		chunks:   r.Item.Chunks,
		checksum: r.Item.Checksum,
		size:     r.Item.Size,
		content:  p.content,
	}
	c.db.upsert(it)
	c.emit(Event{Type: LocalCommitted, Path: r.Item.Path, Version: r.Item.Version, Status: r.Item.Status})
}

// CommitResultView aliases core.CommitResult to keep method signatures tidy.
type CommitResultView = core.CommitResult

// applyRemote brings the local copy of an item up to the given committed
// version, downloading whatever chunks are missing.
func (c *Client) applyRemote(ctx context.Context, item metastore.ItemVersion) error {
	cur, have := c.db.lookupID(item.ItemID)
	if have && cur.version >= item.Version {
		return nil // already at or past this version
	}
	if item.Status == metastore.Deleted {
		c.db.upsert(localItem{
			itemID: item.ItemID, path: item.Path, version: item.Version,
			status: metastore.Deleted,
		})
		return nil
	}
	// Renames keep the content: when the checksum matches the version we
	// already hold, skip the Storage round trip entirely.
	if have && cur.checksum == item.Checksum && cur.content != nil && cur.status != metastore.Deleted {
		c.db.upsert(localItem{
			itemID: item.ItemID, path: item.Path, version: item.Version,
			status: item.Status, chunks: item.Chunks, checksum: item.Checksum,
			size: item.Size, content: cur.content,
		})
		return nil
	}
	content, err := c.fetchContent(ctx, item)
	if err != nil {
		return err
	}
	c.db.addChunks(item.Chunks)
	c.db.upsert(localItem{
		itemID: item.ItemID, path: item.Path, version: item.Version,
		status: item.Status, chunks: item.Chunks, checksum: item.Checksum,
		size: item.Size, content: content,
	})
	return nil
}

func (c *Client) fetchContent(ctx context.Context, item metastore.ItemVersion) ([]byte, error) {
	getSpan := c.tracer.StartFromContext(ctx, "objstore.get")
	defer getSpan.End()
	// Resolve locally first: the LRU chunk cache, then the deferred-upload
	// queue (read-your-writes under degradation). Only the remainder hits
	// the store, in parallel batches.
	compressed := make([][]byte, len(item.Chunks))
	var missIdx []int
	for i, fp := range item.Chunks {
		if data, ok := c.cache.get(fp); ok {
			c.tm.cacheHits.Inc()
			compressed[i] = data
			continue
		}
		c.tm.cacheMisses.Inc()
		if queued, ok := c.uploads.get(fp); ok {
			compressed[i] = queued
			continue
		}
		missIdx = append(missIdx, i)
	}
	if len(missIdx) > 0 {
		if err := c.fetchChunks(ctx, item.Chunks, compressed, missIdx); err != nil {
			return nil, err
		}
	}
	chunks := make([]chunker.Chunk, 0, len(item.Chunks))
	for i, fp := range item.Chunks {
		data, err := chunker.Decompress(compressed[i], c.cfg.Compression)
		if err != nil {
			return nil, fmt.Errorf("client: decompress chunk %s: %w", fp, err)
		}
		chunks = append(chunks, chunker.Chunk{Fingerprint: fp, Data: data})
	}
	content, err := chunker.Reassemble(chunks)
	if err != nil {
		return nil, fmt.Errorf("client: reassemble %s: %w", item.Path, err)
	}
	return content, nil
}

// resolveConflict implements the losing side of Algorithm 1: adopt the
// server's authoritative version for the original path and preserve the
// local content as a renamed conflict copy, proposed as a fresh item. The
// notification echoes only the proposal's key; its path and status come
// from the proposal this device stashed.
func (c *Client) resolveConflict(ctx context.Context, r CommitResultView) error {
	p, ok := c.takeProposed(r.Proposed)

	// Adopt the authoritative version.
	if err := c.applyRemote(ctx, r.Item); err != nil {
		return err
	}

	if !ok || p.item.Status == metastore.Deleted || p.content == nil {
		// Our delete lost against a newer edit, or the proposal is unknown
		// (this device restarted since): keeping the server version is the
		// whole resolution.
		c.emit(Event{Type: RemoteApplied, Path: r.Item.Path, Version: r.Item.Version, Status: r.Item.Status})
		return nil
	}

	copyPath := ConflictCopyPath(p.item.Path, c.cfg.DeviceID)
	if err := c.PutFile(copyPath, p.content); err != nil {
		return fmt.Errorf("client: propose conflict copy: %w", err)
	}
	c.emit(Event{Type: ConflictResolved, Path: copyPath, Version: r.Item.Version, Status: r.Item.Status})
	return nil
}

// ConflictCopyPath derives the renamed path of a losing concurrent edit,
// e.g. "notes.txt" -> "notes (conflicted copy of dev-2).txt".
func ConflictCopyPath(original, deviceID string) string {
	dir := path.Dir(original)
	base := path.Base(original)
	ext := path.Ext(base)
	stem := strings.TrimSuffix(base, ext)
	renamed := fmt.Sprintf("%s (conflicted copy of %s)%s", stem, deviceID, ext)
	if dir == "." {
		return renamed
	}
	return dir + "/" + renamed
}
