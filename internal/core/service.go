// Package core implements the SyncService — the paper's file-sync protocol
// engine (§4.2). It is a stateless ObjectMQ server object: commitRequest
// validates proposed changes against the Metadata back-end (Algorithm 1),
// GetChangesSince (the paper's getChanges, incremental) returns the change-log
// tail after a client's cursor or, from cursor 0, the full workspace state,
// getWorkspaces lists a user's workspaces, and every committed change is
// pushed to all devices of the workspace with an @MultiMethod
// CommitNotification.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"stacksync/internal/metastore"
	"stacksync/internal/obs"
	"stacksync/internal/omq"
)

// ServiceOID is the object id the SyncService binds under: the global
// request queue of Fig. 5.
const ServiceOID = "syncservice"

// WorkspaceOID names the notification group of a workspace. Every device in
// the workspace binds a handler under this id; the service multicasts
// CommitNotifications to it.
func WorkspaceOID(workspaceID string) string { return "workspace." + workspaceID }

// CommitRequest is the @AsyncMethod payload a client sends after uploading
// its unique chunks (§4.1): the proposed metadata for each changed item.
type CommitRequest struct {
	Workspace string                  `json:"workspace"`
	DeviceID  string                  `json:"deviceId"`
	Items     []metastore.ItemVersion `json:"items"`
}

// CommitResult is the per-item outcome inside a CommitNotification.
type CommitResult struct {
	// Committed reports whether the proposed version was accepted.
	Committed bool `json:"committed"`
	// Item is the accepted version when committed. On conflict it is the
	// authoritative current version — piggybacked so the losing client can
	// identify its missing chunks and reconstruct the object (§4.2.1).
	Item metastore.ItemVersion `json:"item"`
	// Proposed is zero on a committed result, whose Item already has the
	// proposal's key. On a conflict it echoes only the key (ItemID, Version)
	// of the version the device proposed: the originator matches it against
	// the full proposal it kept, and every other device ignores it, so
	// echoing the whole proposal would repeat it once per device of the
	// workspace.
	Proposed metastore.ItemVersion `json:"proposed"`
}

// CommitNotification is pushed to every device of a workspace after a
// commitRequest has been processed. It names the workspace and the
// originating device once: its items carry no Workspace, DeviceID or
// CommittedAt (GetChangesSince replies keep them).
type CommitNotification struct {
	Workspace string         `json:"workspace"`
	DeviceID  string         `json:"deviceId"` // originating device
	Results   []CommitResult `json:"results"`
}

// Service is the SyncService implementation. It is safe for concurrent use;
// multiple instances can run against the same Metadata back-end, each bound
// to the shared request queue, and the MQ balances commits across them.
//
// commit publishes its CommitNotification itself before it returns, and
// omq acks a request only after its handler returns: an acked commit
// request's notification is in the broker (ack after execute, §3.4).
type Service struct {
	meta   *metastore.Store
	broker *omq.Broker

	// Observability (DESIGN §15). tracer, when set, replaces the
	// notification broker's tracer for spans this service opens: instances
	// spawned through a RemoteBroker share that broker, so deploy hands each
	// one the node tracer stamped with its instance id. hot is the
	// deployment's hot-workspace sketch, fed by the commit path.
	tracer *obs.Tracer
	hot    *obs.HotStats

	mu     sync.Mutex
	groups map[string]*omq.Proxy // workspace ID → proxy of its declared multicast group

	notifyErrors  *obs.Counter
	notifySent    *obs.Counter
	commitRefused *obs.Counter
}

// commitAbortRetries bounds the in-handler retries of a transiently aborted
// metadata transaction before the error escapes to the transport layer.
const commitAbortRetries = 5

// errForeignItem refuses a request holding an item of another workspace.
var errForeignItem = errors.New("core: item names another workspace")

// NewService wires a SyncService to its Metadata back-end and the ObjectMQ
// broker used to push notifications.
func NewService(meta *metastore.Store, broker *omq.Broker) *Service {
	reg := broker.Registry()
	return &Service{
		meta:          meta,
		broker:        broker,
		groups:        make(map[string]*omq.Proxy),
		notifyErrors:  reg.Counter("core_notify_errors_total"),
		notifySent:    reg.Counter("core_notify_published_total"),
		commitRefused: reg.Counter("core_commit_refused_total"),
	}
}

// Bind registers this instance on the shared request queue. The returned
// BoundObject unbinds it.
func (s *Service) Bind() (*omq.BoundObject, error) {
	return s.broker.Bind(ServiceOID, s.API())
}

// API returns the remote surface of this service, for deployments that bind
// instances through a RemoteBroker factory instead of calling Bind directly.
func (s *Service) API() *API { return &API{svc: s} }

// SetObs installs this instance's tracer and the hot-workspace sketch it
// feeds. Both are optional: a nil tracer leaves the broker's in place, a nil
// sketch records nothing. Call it before the service is bound.
func (s *Service) SetObs(tracer *obs.Tracer, hot *obs.HotStats) {
	s.tracer, s.hot = tracer, hot
}

// obsTracer returns the tracer installed by SetObs, falling back to the
// notification broker's tracer.
func (s *Service) obsTracer() *obs.Tracer {
	if s.tracer != nil {
		return s.tracer
	}
	return s.broker.Tracer()
}

// workspaceGroup returns the proxy of the workspace's multicast group,
// declaring its exchange at most once per Service.
func (s *Service) workspaceGroup(workspaceID string) (*omq.Proxy, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.groups[workspaceID]; ok {
		return p, nil
	}
	oid := WorkspaceOID(workspaceID)
	if err := s.broker.EnsureMulticastGroup(oid); err != nil {
		return nil, fmt.Errorf("core: ensure workspace group: %w", err)
	}
	p := s.broker.Lookup(oid)
	s.groups[workspaceID] = p
	return p, nil
}

// commit is Algorithm 1: check version precedence per item, persist winners,
// mark losers as conflicts carrying the current version, then push one
// notification to the whole workspace before returning.
func (s *Service) commit(ctx context.Context, req CommitRequest) (CommitNotification, error) {
	// Items carry their workspace from the client. One naming another
	// workspace would commit there, and that workspace's devices would
	// never hear of it: the notification goes to req.Workspace.
	for i := range req.Items {
		if ws := req.Items[i].Workspace; ws != req.Workspace {
			return CommitNotification{}, fmt.Errorf("core: commit %s: item %s in %q: %w", req.Workspace, req.Items[i].ItemID, ws, errForeignItem)
		}
	}
	metaSpan := s.obsTracer().StartFromContext(ctx, "metastore.commitBatch")
	metaSpan.Annotate("workspace", req.Workspace)
	var results []metastore.BatchResult
	var err error
	// ErrTxAborted is a transient rollback the store expects callers to
	// retry. Absorb it here, bounded: a retry in the handler is cheaper than
	// failing the one-way call, which sends the delivery back through the
	// queue after a backoff. Past the budget the error propagates and the
	// delivery is requeued; a sync caller sees the error.
	for attempt := 0; ; attempt++ {
		results, err = s.meta.CommitBatch(req.Items)
		if err == nil || !errors.Is(err, metastore.ErrTxAborted) || attempt >= commitAbortRetries {
			break
		}
		time.Sleep(time.Duration(attempt+1) * time.Millisecond)
	}
	metaSpan.End()
	if err != nil {
		return CommitNotification{}, fmt.Errorf("core: commit %s: %w", req.Workspace, err)
	}
	n := CommitNotification{
		Workspace: req.Workspace,
		DeviceID:  req.DeviceID,
		Results:   make([]CommitResult, len(results)),
	}
	for i, r := range results {
		// r.Version is a copy: the snapshot keeps its workspace, device and
		// commit time, which no device reads from a notification's item.
		r.Version.Workspace, r.Version.DeviceID, r.Version.CommittedAt = "", "", time.Time{}
		n.Results[i] = CommitResult{Committed: r.Committed, Item: r.Version}
		if !r.Committed {
			n.Results[i].Proposed = metastore.ItemVersion{ItemID: req.Items[i].ItemID, Version: req.Items[i].Version}
		}
	}
	// notifyCommit: @MultiMethod + @AsyncMethod (Fig. 6).
	if err := s.notify(ctx, n); err != nil {
		return n, err
	}
	s.observeHot(req, len(n.Results))
	return n, nil
}

// observeHot feeds the hot-workspace sketch: one commit, the notification
// fan-out it caused (results pushed to the workspace group), and the bytes
// of content the commit covered.
func (s *Service) observeHot(req CommitRequest, fanout int) {
	if s.hot == nil {
		return
	}
	var bytes uint64
	for i := range req.Items {
		if sz := req.Items[i].Size; sz > 0 {
			bytes += uint64(sz)
		}
	}
	s.hot.ObserveCommit(req.Workspace, uint64(fanout), bytes)
}

// notify publishes n to its workspace's group. A failure to declare the
// group is returned, so the request is redelivered; a publish error is
// counted, not returned: the commit is durable either way, and the
// originating device retransmits its proposal until a notification of it
// arrives.
func (s *Service) notify(ctx context.Context, n CommitNotification) error {
	group, err := s.workspaceGroup(n.Workspace)
	if err != nil {
		return err
	}
	if err := group.MultiCtx(ctx, "NotifyCommit", n); err != nil {
		s.notifyErrors.Inc()
	} else {
		s.notifySent.Inc()
	}
	return nil
}

// API is the remote surface of the SyncService (Fig. 6). Only these methods
// are reachable over ObjectMQ.
type API struct {
	svc *Service
}

// CommitRequest processes a proposed change list (@AsyncMethod). The client
// learns the outcome through the workspace's CommitNotification, never
// through a return value. The context carries the request's trace context,
// so the metadata commit and the notification fan-out appear as spans of the
// originating client's trace.
//
// A request that can never succeed (an unknown workspace, an item of
// another workspace) is counted in core_commit_refused_total and acked:
// returning its error would have omq requeue it, and the redeliveries would
// hold this instance's worker. Transient errors (ErrTxAborted past its
// budget, ErrClosed, a WAL failure) still return, so the request is retried.
func (a *API) CommitRequest(ctx context.Context, req CommitRequest) error {
	_, err := a.svc.commit(ctx, req)
	if errors.Is(err, metastore.ErrNoWorkspace) || errors.Is(err, errForeignItem) {
		a.svc.commitRefused.Inc()
		return nil
	}
	return err
}

// ChangesReply is the GetChangesSince payload: either a change-log tail in
// commit order (tombstones included) or — when the requested version was
// compacted away or the caller started cold — the full live state with Full
// set. Version is the workspace version the reply is consistent at; the
// client stores it as its next resync cursor.
type ChangesReply struct {
	Workspace string                  `json:"workspace"`
	Since     uint64                  `json:"since"`
	Version   uint64                  `json:"version"`
	Full      bool                    `json:"full,omitempty"`
	Items     []metastore.ItemVersion `json:"items,omitempty"`
}

// GetChangesSince is the incremental form of getChanges (@SyncMethod): a
// reconnecting client sends the last workspace version it synced and receives
// only the versions committed after it. The read is an MVCC snapshot at the
// metastore, taken without the workspace's writer lock, so a reconnect storm
// never stalls the commit hot path.
func (a *API) GetChangesSince(ctx context.Context, workspace string, since uint64) (ChangesReply, error) {
	span := a.svc.obsTracer().StartFromContext(ctx, "metastore.changesSince")
	span.Annotate("workspace", workspace)
	ch, err := a.svc.meta.ChangesSince(workspace, since)
	span.End()
	if err != nil {
		return ChangesReply{}, err
	}
	return ChangesReply{
		Workspace: ch.Workspace,
		Since:     ch.Since,
		Version:   ch.Version,
		Full:      ch.Full,
		Items:     ch.Items,
	}, nil
}

// GetWorkspaces lists the workspaces a user can access (@SyncMethod).
func (a *API) GetWorkspaces(user string) ([]metastore.Workspace, error) {
	return a.svc.meta.WorkspacesFor(user)
}
