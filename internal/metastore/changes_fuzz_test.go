package metastore

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// FuzzChangesSince drives random commit / compact / read interleavings from
// the fuzzer's bytes and checks every ChangesSince reply against a serial
// reference model (a plain slice of the committed entries): the reply must be
// either the exact log tail after the cursor or — cold cursor, future cursor,
// or cursor below the compaction watermark — the exact live state, flagged
// Full. A tiny retention bound keeps automatic compaction in play alongside
// the byte-driven force-compactions.
func FuzzChangesSince(f *testing.F) {
	f.Add([]byte{0, 1, 4, 2, 8, 3, 0, 3, 200})
	f.Add([]byte{0, 0, 0, 0, 1, 3, 2, 0, 3, 9, 4, 1})
	f.Add([]byte{2, 7, 3, 5})
	f.Add([]byte{1, 2, 1, 2, 1, 2, 3, 255})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256] // bound the final all-cursor sweep
		}
		fixed := time.Unix(1700000000, 0).UTC()
		s := NewStore(WithNow(func() time.Time { return fixed }), WithLogRetention(16))
		if err := s.CreateWorkspace(Workspace{ID: "ws", Owner: "u"}); err != nil {
			t.Fatal(err)
		}

		const items = 5
		var log []ItemVersion // reference model: every committed entry, in order
		cur := make(map[string]uint64, items)

		mk := func(b byte) ItemVersion {
			itemID := fmt.Sprintf("it-%d", int(b)%items)
			next := cur[itemID] + 1
			status := Modified
			if next == 1 {
				status = Added
			} else if b&0x80 != 0 {
				status = Deleted
			}
			return ItemVersion{
				Workspace: "ws", ItemID: itemID, Path: "/" + itemID,
				Version: next, Status: status, Checksum: fmt.Sprintf("c%d", next),
			}
		}
		sameItems := func(got, want []ItemVersion) bool {
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					return false
				}
			}
			return true
		}
		checkRead := func(since uint64) {
			t.Helper()
			version := uint64(len(log))
			sn, err := s.snapshotOf("ws")
			if err != nil {
				t.Fatal(err)
			}
			wm := sn.logStart
			ch, err := s.ChangesSince("ws", since)
			if err != nil {
				t.Fatalf("ChangesSince(%d): %v", since, err)
			}
			if ch.Version != version || ch.Since != since || ch.Workspace != "ws" {
				t.Fatalf("ChangesSince(%d) header %+v, model version %d", since, ch, version)
			}
			switch {
			case since == 0 || since > version || since < wm:
				if !ch.Full || !sameItems(ch.Items, foldLive(log)) {
					t.Fatalf("ChangesSince(%d) full reply diverges (wm=%d, v=%d)\n got:  %+v\n want: %+v",
						since, wm, version, ch.Items, foldLive(log))
				}
			case since == version:
				if ch.Full || len(ch.Items) != 0 {
					t.Fatalf("ChangesSince(%d) at head: %+v", since, ch)
				}
			default:
				if ch.Full || !sameItems(ch.Items, log[since:]) {
					t.Fatalf("ChangesSince(%d) tail diverges (wm=%d, v=%d)\n got:  %+v\n want: %+v",
						since, wm, version, ch.Items, log[since:])
				}
			}
		}

		for i := 0; i < len(data); i++ {
			op := data[i]
			arg := byte(0)
			if i+1 < len(data) {
				i++
				arg = data[i]
			}
			switch op % 5 {
			case 0: // valid single commit
				v := mk(arg)
				committed, err := s.CommitVersion(v)
				if err != nil {
					t.Fatalf("commit %s v%d: %v", v.ItemID, v.Version, err)
				}
				cur[v.ItemID] = v.Version
				log = append(log, committed)
			case 1: // valid batch commit
				n := int(arg)%3 + 1
				batch := make([]ItemVersion, 0, n)
				for j := 0; j < n; j++ {
					v := mk(arg + byte(j))
					batch = append(batch, v)
					cur[v.ItemID] = v.Version
				}
				res, err := s.CommitBatch(batch)
				if err != nil {
					t.Fatalf("batch: %v", err)
				}
				for _, r := range res {
					if !r.Committed {
						t.Fatalf("valid batch proposal conflicted: %+v", r)
					}
					log = append(log, r.Version)
				}
			case 2: // force-compact
				keep := int(arg) % 8
				sn, _ := s.snapshotOf("ws")
				before := sn.logStart
				wm, err := s.CompactLog("ws", keep)
				if err != nil {
					t.Fatalf("compact: %v", err)
				}
				if wm < before {
					t.Fatalf("watermark regressed: %d -> %d", before, wm)
				}
			case 3: // read at a byte-derived cursor (can overshoot the head)
				checkRead(uint64(arg) % (uint64(len(log)) + 3))
			case 4: // stale proposal: must conflict, must not change the log
				itemID := fmt.Sprintf("it-%d", int(arg)%items)
				if cur[itemID] == 0 {
					continue
				}
				_, err := s.CommitVersion(ItemVersion{
					Workspace: "ws", ItemID: itemID, Path: "/" + itemID,
					Version: cur[itemID] + 2, Status: Modified,
				})
				if !errors.Is(err, ErrVersionConflict) {
					t.Fatalf("stale proposal: %v", err)
				}
			}
		}

		// Final sweep: every cursor, including one past the head.
		for since := uint64(0); since <= uint64(len(log))+1; since++ {
			checkRead(since)
		}
	})
}
