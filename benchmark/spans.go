package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by a wrapper in
// this package (never by the program's own obs tracer). Times are wall-clock
// unix nanoseconds so spans of the server child and the parent line up.
type span struct {
	Name  string `json:"name"`
	Dev   int    `json:"dev"`          // device slot, or -1 for the server child
	ID    string `json:"id,omitempty"` // commit / message id
	Key   string `json:"key,omitempty"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
	N     int    `json:"n,omitempty"`     // objects, chunks or messages covered
	Bytes int64  `json:"bytes,omitempty"` // payload bytes covered
	Err   bool   `json:"err,omitempty"`
	// Parent is the index of the enclosing span, filled by linkParents.
	Parent int `json:"parent"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced runs stay untraced.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	s.Parent = -1
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the recorded spans and empties the recorder.
func (r *recorder) take() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

func now() int64 { return time.Now().UnixNano() }

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap each other (parallel transfer
// workers) and may stick out of the parent; only the union of their
// intervals inside the parent counts.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		covered += v.hi - max(v.lo, end)
		end = v.hi
	}
	return time.Duration(parent.End - parent.Start - covered)
}

// linkParents sets Parent on every span of childNames that starts inside a
// span named parentName on the same device. A device runs one such parent at
// a time (the driver serialises PutFile per device), so containment is
// unambiguous. It returns, per parent index, the indexes of its children.
func linkParents(spans []span, parentName string, childNames map[string]bool) map[int][]int {
	byDev := make(map[int][]int)
	for i, s := range spans {
		if s.Name == parentName {
			byDev[s.Dev] = append(byDev[s.Dev], i)
		}
	}
	for _, idx := range byDev {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	}
	children := make(map[int][]int)
	for i, s := range spans {
		if !childNames[s.Name] {
			continue
		}
		parents := byDev[s.Dev]
		// Last parent starting at or before the child.
		k := sort.Search(len(parents), func(k int) bool { return spans[parents[k]].Start > s.Start }) - 1
		if k < 0 {
			continue
		}
		p := parents[k]
		if s.Start <= spans[p].End {
			spans[i].Parent = p
			children[p] = append(children[p], i)
		}
	}
	return children
}

// writeTraceEvents writes spans in the Chrome trace-event format (load it in
// chrome://tracing or Perfetto): one complete ("X") event per span, the
// device slot as thread id, the server child as its own process.
func writeTraceEvents(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		pid, tid := 1, s.Dev
		if s.Dev < 0 {
			pid, tid = 2, 0
		}
		args := map[string]any{"span": i}
		if s.ID != "" {
			args["commit"] = s.ID
		}
		if s.Parent >= 0 {
			args["parent"] = s.Parent
		}
		if s.N > 0 {
			args["n"] = s.N
		}
		if s.Bytes > 0 {
			args["bytes"] = s.Bytes
		}
		events = append(events, event{
			Name: s.Name, Cat: "bench", Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: pid, Tid: tid, Args: args,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		_ = f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}
