package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"stacksync/internal/core"
	"stacksync/internal/metastore"
	"stacksync/internal/omq"
)

// perLayer lists the per-layer metrics and, for each, the end-to-end metric
// it should move and where. A time is never reported for a call a workload
// does not make: every metric here is measured on all four workloads.
var perLayer = []metricDef{
	{Name: "client.put_file_ms", Unit: "ms", Better: "lower", Moves: "commit_p50_ms on every workload"},
	{Name: "client.self_ms", Unit: "ms", Better: "lower", Moves: "sync_MBps on bulk_transfer (gzip and the whole-file checksum live here)"},
	{Name: "client.apply_ms", Unit: "ms", Better: "lower", Moves: "sync_p50_ms on fanout"},
	{Name: "client.resync_ms", Unit: "ms", Better: "lower", Moves: "sync_p95_ms on trace_mix"},
	{Name: "client.dedup_hit_share", Unit: "ratio", Better: "higher", Moves: "storage_bytes_per_user_byte on bulk_transfer"},
	{Name: "chunker.split_MBps", Unit: "MB/s", Better: "higher", Moves: "sync_MBps on bulk_transfer; nothing on meta_small"},
	{Name: "chunker.chunks_per_commit", Unit: "count", Better: "lower", Moves: "sync_MBps on bulk_transfer"},
	{Name: "chunker.fingerprint_MBps", Unit: "MB/s", Better: "higher", Moves: "sync_MBps on bulk_transfer"},
	{Name: "chunker.compress_MBps", Unit: "MB/s", Better: "higher", Moves: "sync_MBps on bulk_transfer"},
	{Name: "chunker.decompress_MBps", Unit: "MB/s", Better: "higher", Moves: "sync_MBps on bulk_transfer"},
	{Name: "objstore.put_multi_ms", Unit: "ms", Better: "lower", Moves: "sync_p50_ms on bulk_transfer"},
	{Name: "objstore.get_multi_ms", Unit: "ms", Better: "lower", Moves: "sync_p50_ms on bulk_transfer and fanout"},
	{Name: "objstore.upload_ms", Unit: "ms", Better: "lower", Moves: "commit_p50_ms on bulk_transfer"},
	{Name: "objstore.exists_time_share", Unit: "ratio", Better: "lower", Moves: "sync_MBps on bulk_transfer"},
	{Name: "objstore.calls_per_commit", Unit: "count", Better: "lower", Moves: "sync_MBps on bulk_transfer"},
	{Name: "objstore.objects_per_call", Unit: "count", Better: "higher", Moves: "sync_MBps on bulk_transfer"},
	{Name: "objstore.failed_share", Unit: "ratio", Better: "lower", Moves: "sla_share on every workload"},
	{Name: "objstore.disk_put_MBps", Unit: "MB/s", Better: "higher", Moves: "sync_MBps on bulk_transfer"},
	{Name: "objstore.disk_get_MBps", Unit: "MB/s", Better: "higher", Moves: "sync_MBps on bulk_transfer"},
	{Name: "objstore.gateway_self_ms", Unit: "ms", Better: "lower", Moves: "sync_p50_ms on fanout (many small GETs)"},
	{Name: "codec.marshal_ns", Unit: "ns", Better: "lower", Moves: "cpu_s_per_kcommit on meta_small"},
	{Name: "codec.unmarshal_ns", Unit: "ns", Better: "lower", Moves: "cpu_s_per_kcommit on meta_small"},
	{Name: "codec.request_bytes", Unit: "B", Better: "lower", Moves: "control_bytes_per_commit on meta_small"},
	{Name: "codec.notification_bytes", Unit: "B", Better: "lower", Moves: "control_bytes_per_commit on fanout"},
	{Name: "wire.encode_ns_frame", Unit: "ns", Better: "lower", Moves: "commits_per_s on meta_small"},
	{Name: "wire.decode_ns_frame", Unit: "ns", Better: "lower", Moves: "commits_per_s on meta_small"},
	{Name: "wire.overhead_bytes_frame", Unit: "B", Better: "lower", Moves: "control_bytes_per_commit on meta_small"},
	{Name: "mq.publish_ms", Unit: "ms", Better: "lower", Moves: "commit_p50_ms on meta_small"},
	{Name: "mq.request_dwell_ms", Unit: "ms", Better: "lower", Moves: "commit_p50_ms on meta_small"},
	{Name: "mq.notify_dwell_ms", Unit: "ms", Better: "lower", Moves: "sync_p50_ms and sync_p95_ms on fanout"},
	{Name: "mq.msgs_per_commit", Unit: "count", Better: "lower", Moves: "control_bytes_per_commit on every workload"},
	{Name: "mq.bytes_per_commit", Unit: "B", Better: "lower", Moves: "control_bytes_per_commit on every workload"},
	{Name: "mq.redelivered", Unit: "count", Better: "lower", Moves: "sync_p95_ms on every workload"},
	{Name: "mq.broker_ns_msg", Unit: "ns", Better: "lower", Moves: "commits_per_s on meta_small"},
	{Name: "mq.fanout_ns_queue", Unit: "ns", Better: "lower", Moves: "sync_p95_ms on fanout"},
	{Name: "mq.loopback_up_ns", Unit: "ns", Better: "lower", Moves: "commit_p50_ms on meta_small"},
	{Name: "mq.loopback_down_ns", Unit: "ns", Better: "lower", Moves: "sync_p50_ms on fanout"},
	{Name: "omq.call_ns", Unit: "ns", Better: "lower", Moves: "commits_per_s on meta_small"},
	{Name: "core.turnaround_ms", Unit: "ms", Better: "lower", Moves: "commit_p50_ms and commits_per_s on meta_small"},
	{Name: "core.self_ms", Unit: "ms", Better: "lower", Moves: "sync_p50_ms on fanout"},
	{Name: "core.notifications_per_commit", Unit: "count", Better: "lower", Moves: "sync_p50_ms on fanout"},
	{Name: "metastore.commit_ns", Unit: "ns", Better: "lower", Moves: "commits_per_s and commit_p95_ms on meta_small"},
	{Name: "metastore.commits_per_flush", Unit: "count", Better: "higher", Moves: "commits_per_s on meta_small"},
	{Name: "metastore.fsyncs_per_s", Unit: "1/s", Better: "higher", Moves: "commits_per_s on meta_small"},
	{Name: "metastore.wal_bytes_per_commit", Unit: "B", Better: "lower", Moves: "metastore.restart_ready_ms; commits_per_s on meta_small"},
	{Name: "metastore.changes_since_ns", Unit: "ns", Better: "lower", Moves: "client.resync_ms, so sync_p95_ms on trace_mix"},
	{Name: "metastore.recover_records_per_s", Unit: "1/s", Better: "higher", Moves: "no end-to-end metric today; the bounded-state item's number"},
	{Name: "metastore.restart_ready_ms", Unit: "ms", Better: "lower", Moves: "no end-to-end metric today; the bounded-state item's number"},
	{Name: "untraced.commits_per_s", Unit: "1/s", Better: "higher", Moves: "the paper's commit rate, wrappers off (Fig. 8)"},
	{Name: "untraced.sync_MBps", Unit: "MB/s", Better: "higher", Moves: "the data rate behind Fig. 7e/f, wrappers off"},
	{Name: "untraced.commit_p50_ms", Unit: "ms", Better: "lower", Moves: "writer-side commit time, wrappers off"},
	{Name: "untraced.commit_p95_ms", Unit: "ms", Better: "lower", Moves: "writer-side commit time, wrappers off"},
	{Name: "untraced.sync_p50_ms", Unit: "ms", Better: "lower", Moves: "the paper's sync time (Fig. 7e/f), wrappers off; sla_share"},
	{Name: "untraced.sync_p95_ms", Unit: "ms", Better: "lower", Moves: "the paper's sync time, tail, wrappers off; sla_share"},
	{Name: "untraced.cpu_s_per_kcommit", Unit: "s", Better: "lower", Moves: "server CPU per 1000 commits, wrappers off"},
	{Name: "untraced.server_rss_mb", Unit: "MB", Better: "lower", Moves: "server memory high-water mark, wrappers off"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower", Moves: "validity of every latency above"},
	{Name: "loadgen.trace_overhead_share", Unit: "ratio", Better: "lower", Moves: "validity of the per-layer numbers"},
	{Name: "loadgen.unattributed_share", Unit: "ratio", Better: "lower", Moves: "validity of the per-layer numbers"},
}

// traceData is what a traced run recorded, gathered before the server is
// killed for the durability check.
type traceData struct {
	spans  []span // parent's and child's, parents linked
	file   string
	inputs probeInputs
}

// collectTrace pulls the child's spans, merges them with the parent's, and
// captures the probe inputs: the committed versions of workspace 0 (asked of
// the SyncService directly) and one synced file.
func (r *rig) collectTrace(cfg runConfig, m *measurement) (*traceData, error) {
	childSpans, err := r.srv.dumpSpans(filepath.Join(r.dataDir, "spans.json"))
	if err != nil {
		return nil, err
	}
	td := &traceData{spans: append(r.rec.take(), childSpans...)}
	linkParents(td.spans, "client.put_file", putFileChildren)
	linkParents(td.spans, "client.apply", applyChildren)
	if cfg.outDir != "" {
		td.file = filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", r.w.Name, cfg.seed))
		if err := writeTraceEvents(td.file, td.spans); err != nil {
			return nil, err
		}
	}

	b, err := omq.NewBroker(r.conns[0])
	if err != nil {
		return nil, err
	}
	defer b.Close()
	var reply core.ChangesReply
	if err := b.Lookup(core.ServiceOID).Call("GetChangesSince", &reply, workspaceID(0), uint64(0)); err != nil {
		return nil, fmt.Errorf("capture committed versions: %w", err)
	}
	td.inputs = probeInputs{items: liveItems(reply.Items), dir: r.dataDir, fanout: r.w.Devices, writers: serviceInstances}
	writer := r.devs[0].client
	for _, path := range writer.Paths() {
		if data, ok := writer.FileContent(path); ok && len(data) > len(td.inputs.sample) {
			td.inputs.sample = data
		}
	}
	return td, nil
}

func liveItems(items []metastore.ItemVersion) []metastore.ItemVersion {
	var out []metastore.ItemVersion
	for _, it := range items {
		if it.Status != metastore.Deleted {
			out = append(out, it)
		}
	}
	return out
}

var (
	putFileChildren = map[string]bool{"chunker.split": true, "objstore.put_multi": true, "objstore.exists_multi": true, "mq.publish": true}
	applyChildren   = map[string]bool{"objstore.get_multi": true}
)

// layerRow is one line of the layer-consistency report: what the traced run
// spent in a layer per commit, next to what the layer's isolation probe
// predicts for the calls it served.
type layerRow struct {
	layer             string
	tracedMS, probeMS float64
	how               string
}

// perLayerMetrics computes every per-layer metric from the spans of the
// measured window, the probes and the restart check, and appends the
// layer-consistency findings.
func perLayerMetrics(w *workload, r *rig, m *measurement, win window, td *traceData, restart restartResult, findings []string) (map[string]float64, []string, error) {
	pc, err := runProbes(td.inputs)
	if err != nil {
		return nil, nil, err
	}
	lo, hi := m.start.UnixNano(), m.end.UnixNano()
	in := func(s span) bool { return s.Start >= lo && s.Start < hi }

	byName := make(map[string][]int)
	for i, s := range td.spans {
		if in(s) {
			byName[s.Name] = append(byName[s.Name], i)
		}
	}
	durs := func(idx []int) []float64 {
		out := make([]float64, len(idx))
		for k, i := range idx {
			out[k] = ms(td.spans[i].dur())
		}
		return out
	}
	sums := func(idx []int) (dur time.Duration, bytes int64, n, errs int) {
		for _, i := range idx {
			s := td.spans[i]
			dur += s.dur()
			bytes += s.Bytes
			n += s.N
			if s.Err {
				errs++
			}
		}
		return
	}
	children := make(map[int][]span)
	for i, s := range td.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], td.spans[i])
		}
	}

	commits := float64(len(win.done))
	puts := byName["client.put_file"]
	var selfMS, uploadMS []float64
	for _, i := range puts {
		var store []span
		for _, c := range children[i] {
			if strings.HasPrefix(c.Name, "objstore.") {
				store = append(store, c)
			}
		}
		selfMS = append(selfMS, ms(selfTime(td.spans[i], children[i])))
		uploadMS = append(uploadMS, ms(td.spans[i].dur()-selfTime(td.spans[i], store)))
	}
	var applySelfMS []float64
	for _, i := range byName["client.apply"] {
		applySelfMS = append(applySelfMS, ms(selfTime(td.spans[i], children[i])))
	}

	splitDur, splitBytes, chunks, _ := sums(byName["chunker.split"])
	putDur, putBytes, putObjs, putErrs := sums(byName["objstore.put_multi"])
	getDur, getBytes, getObjs, getErrs := sums(byName["objstore.get_multi"])
	existsDur, _, existsObjs, existsErrs := sums(byName["objstore.exists_multi"])
	storeCalls := float64(len(byName["objstore.put_multi"]) + len(byName["objstore.get_multi"]) + len(byName["objstore.exists_multi"]))
	diskPutDur, diskPutBytes, _, _ := sums(byName["disk.put_multi"])
	diskGetDur, diskGetBytes, _, _ := sums(byName["disk.get_multi"])
	diskExistsDur, _, _, _ := sums(byName["disk.exists_multi"])

	// Follow messages across the processes by id.
	deviceWS := func(dev int) int { return dev / w.Devices }
	publishAt := make(map[string]span)    // device publish of a commit request
	notifyAt := make(map[string]span)     // service publish of a notification
	var requestPub []float64              // mq.publish_ms
	var perWSNotify = map[string][]span{} // notification publishes by exchange, in time order
	for _, i := range byName["mq.publish"] {
		s := td.spans[i]
		switch {
		case s.Dev >= 0 && s.Key == core.ServiceOID && s.Parent >= 0:
			publishAt[s.ID] = s
			requestPub = append(requestPub, ms(s.dur()))
		case s.Dev < 0 && strings.HasPrefix(s.Key, "workspace."):
			notifyAt[s.ID] = s
			perWSNotify[s.Key] = append(perWSNotify[s.Key], s)
		}
	}
	for _, list := range perWSNotify {
		sort.Slice(list, func(a, b int) bool { return list[a].Start < list[b].Start })
	}
	var requestDwell, notifyDwell, turnaround []float64
	var delivered, deliveredBytes, redelivered float64
	var requests []span // commit requests as the service received them
	for _, i := range byName["mq.deliver"] {
		s := td.spans[i]
		delivered++
		deliveredBytes += float64(s.Bytes)
		if s.N > 0 {
			redelivered++
		}
		switch {
		case s.Dev < 0 && s.Key == core.ServiceOID:
			if pub, ok := publishAt[s.ID]; ok {
				requestDwell = append(requestDwell, ms(time.Duration(s.Start-pub.Start)))
				requests = append(requests, s)
			}
		case s.Dev >= 0 && isNotifyQueue(s.Key):
			if pub, ok := notifyAt[s.ID]; ok {
				notifyDwell = append(notifyDwell, ms(time.Duration(s.Start-pub.Start)))
			}
		}
	}
	// A request's notification is the first one published to its workspace
	// after the service received it that no earlier request claimed.
	sort.Slice(requests, func(a, b int) bool { return requests[a].Start < requests[b].Start })
	claimed := make(map[string]int)
	for _, req := range requests {
		exchange := core.WorkspaceOID(workspaceID(deviceWS(publishAt[req.ID].Dev))) + ".multi"
		list := perWSNotify[exchange]
		k := claimed[exchange]
		for k < len(list) && list[k].Start < req.Start {
			k++
		}
		if k < len(list) {
			turnaround = append(turnaround, ms(time.Duration(list[k].Start-req.Start)))
			k++
		}
		claimed[exchange] = k
	}

	resync := append([]float64(nil), m.resyncMS...)
	resync = append(resync, r.finalResyncMS...)

	out := map[string]float64{
		"client.put_file_ms":     median(durs(puts)),
		"client.self_ms":         median(selfMS),
		"client.apply_ms":        median(durs(byName["client.apply"])),
		"client.resync_ms":       median(resync),
		"client.dedup_hit_share": 1 - float64(putObjs)/float64(max(chunks, 1)),

		"chunker.split_MBps":        float64(splitBytes) / 1e6 / splitDur.Seconds(),
		"chunker.chunks_per_commit": float64(chunks) / float64(max(len(puts), 1)),
		"chunker.fingerprint_MBps":  pc.fingerprintMBps,
		"chunker.compress_MBps":     pc.compressMBps,
		"chunker.decompress_MBps":   pc.decompressMBps,

		"objstore.put_multi_ms":      median(durs(byName["objstore.put_multi"])),
		"objstore.get_multi_ms":      median(durs(byName["objstore.get_multi"])),
		"objstore.upload_ms":         median(uploadMS),
		"objstore.exists_time_share": existsDur.Seconds() / (existsDur + putDur).Seconds(),
		"objstore.calls_per_commit":  storeCalls / commits,
		"objstore.objects_per_call":  float64(putObjs+getObjs+existsObjs) / storeCalls,
		"objstore.failed_share":      float64(putErrs+getErrs+existsErrs) / storeCalls,
		"objstore.disk_put_MBps":     float64(diskPutBytes) / 1e6 / diskPutDur.Seconds(),
		"objstore.disk_get_MBps":     float64(diskGetBytes) / 1e6 / diskGetDur.Seconds(),
		"objstore.gateway_self_ms":   ms(putDur+getDur+existsDur-diskPutDur-diskGetDur-diskExistsDur) / storeCalls,

		"codec.marshal_ns":          pc.marshalNS,
		"codec.unmarshal_ns":        pc.unmarshalNS,
		"codec.request_bytes":       pc.requestBytes,
		"codec.notification_bytes":  pc.notifBytes,
		"wire.encode_ns_frame":      pc.wireEncodeNS,
		"wire.decode_ns_frame":      pc.wireDecodeNS,
		"wire.overhead_bytes_frame": pc.wireOverheadBytes,

		"mq.publish_ms":       median(requestPub),
		"mq.request_dwell_ms": median(requestDwell),
		"mq.notify_dwell_ms":  median(notifyDwell),
		"mq.msgs_per_commit":  delivered / commits,
		"mq.bytes_per_commit": deliveredBytes / commits,
		"mq.redelivered":      redelivered,
		"mq.broker_ns_msg":    pc.brokerNS,
		"mq.fanout_ns_queue":  pc.fanoutNSQueue,
		"mq.loopback_up_ns":   pc.loopbackUpNS,
		"mq.loopback_down_ns": pc.loopbackDownNS,
		"omq.call_ns":         pc.omqCallNS,

		"core.turnaround_ms":            median(turnaround),
		"core.self_ms":                  median(turnaround) - pc.commitNS/1e6,
		"core.notifications_per_commit": float64(len(notifyAt)) / float64(max(len(requests), 1)),

		"metastore.commit_ns":             pc.commitNS,
		"metastore.commits_per_flush":     pc.commitsPerFlush,
		"metastore.fsyncs_per_s":          pc.fsyncsPerS,
		"metastore.wal_bytes_per_commit":  pc.walBytesPerCommit,
		"metastore.changes_since_ns":      pc.changesSinceNS,
		"metastore.recover_records_per_s": restart.recoverPerSec,
		"metastore.restart_ready_ms":      restart.readyMS,

		"loadgen.late_p99_ms": percentile(sortedCopy(win.lateMS), 0.99),
	}

	// Layer consistency: traced time per commit next to probe cost x calls.
	perCommit := func(total time.Duration) float64 { return ms(total) / commits }
	freshBytes := float64(putBytes) // compressed bytes uploaded ~ bytes gzip produced
	userBytes := win.userBytes
	peers := float64(w.Devices - 1)
	rows := []layerRow{
		{"chunker (split+SHA-1)", perCommit(splitDur), float64(splitBytes) / 1e6 / pc.splitMBps * 1e3 / commits,
			"bytes split / isolated split speed"},
		{"client self (gzip, checksum)", mean(selfMS), (freshBytes/pc.compressMBps + userBytes/pc.fingerprintMBps) / 1e6 * 1e3 / commits,
			"bytes uploaded / gzip speed + file bytes / SHA-1 speed"},
		{"client apply (gunzip, verify)", mean(applySelfMS), (float64(getBytes)/pc.decompressMBps+float64(getBytes)/pc.fingerprintMBps)/1e6*1e3/max(float64(len(applySelfMS)), 1) + pc.notifUnmarshal/1e6,
			"bytes downloaded / (gunzip + SHA-1 speed) + notification decode"},
		{"mq request path", mean(requestDwell), pc.loopbackUpNS / 1e6,
			"publish over a loopback socket to a journaled broker -> in-process delivery"},
		{"core (service turnaround)", mean(turnaround), (pc.unmarshalNS + pc.commitNS + pc.notifMarshalNS + pc.omqCallNS/2) / 1e6,
			"request decode + metastore commit + notification encode + half an omq round trip"},
		{"mq notify path", mean(notifyDwell), (pc.fanoutNSQueue*peers + pc.loopbackDownNS) / 1e6,
			"fan-out to the other bound queues + in-process publish -> delivery over a loopback socket"},
	}
	var tracedSum, gapSum float64
	logf("layer consistency (%s): traced ms per call vs isolation-probe prediction", w.Name)
	for _, row := range rows {
		gap := row.tracedMS - row.probeMS
		share := gap / row.tracedMS
		tracedSum += row.tracedMS
		gapSum += max(gap, 0)
		logf("  %-30s traced %9.4f  probe %9.4f  gap %+6.0f%%  (%s)", row.layer, row.tracedMS, row.probeMS, share*100, row.how)
		if share > 0.25 || share < -0.25 {
			findings = append(findings, fmt.Sprintf("%s: traced %.4f ms vs probe %.4f ms (gap %+.0f%%): queueing, locks, GC or scheduling the probe does not see",
				row.layer, row.tracedMS, row.probeMS, share*100))
		}
	}
	logf("  %-30s no isolation probe exists for the HTTP gateway; see objstore.gateway_self_ms", "objstore gateway")
	// The data path's part of a sync: cut, hash and gzip on the writer, its
	// upload, and the download on one peer, against the mean sync time.
	dataMS := perCommit(splitDur) + mean(selfMS) + mean(uploadMS) + ms(getDur)/max(float64(len(byName["objstore.get_multi"])), 1)
	logf("  data path (chunker, gzip+checksum, objstore up and down) is %.0f%% of the mean sync time (%.2f of %.2f ms); the rest is the control path",
		dataMS/mean(win.syncMS)*100, dataMS, mean(win.syncMS))
	out["loadgen.unattributed_share"] = gapSum / tracedSum
	return out, findings, nil
}
