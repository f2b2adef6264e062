package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"stacksync/internal/chunker"
	"stacksync/internal/trace"
)

type opKind int

const (
	opAdd       opKind = iota // new content for the whole file
	opOverwrite               // rewrite bytes inside one chunk in the middle
	opPrepend                 // insert bytes at the front: every fixed chunk shifts
	opTrace                   // an op from trace.Generate, materialised in order
)

// opSpec is one generated file operation. It holds everything the driver
// needs except file content, which is built when the op is sent so a run
// never holds more than the live files in memory.
type opSpec struct {
	// Due is when an open-loop op is to be sent, as an offset from the start
	// of the measured window (negative during warm-up). Closed-loop ops are
	// sent when their writer is free and leave it zero.
	Due    time.Duration
	WS     int // workspace
	Writer int // device within the workspace that makes the change
	Kind   opKind
	Path   string
	Size   int    // bytes of new content (opAdd) or bytes changed (updates)
	Seed   uint64 // content seed
	Trace  trace.Op
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name string
	Why  string
	// Workspaces × Devices logical devices are started; the last device of a
	// workspace is a mobile one when Mobile is set.
	Workspaces, Devices int
	Mobile              bool
	// Closed workloads keep one commit outstanding per workspace. Open ones
	// send Rate ops/s on a schedule fixed before the run, whatever the system
	// does. Rates are constants of the workload, set to at most half of what
	// the matching closed loop sustains on two cores.
	Closed bool
	Rate   float64
	plan   func(w *workload, seed int64, warm, window time.Duration) *plan
}

// plan is a workload's op list for one seed.
type plan struct {
	// open is the whole schedule of an open-loop workload, sorted by Due.
	open []opSpec
	// closed yields the i-th op of a closed-loop workspace's writer.
	closed func(ws, i int) opSpec
	// mat gives trace ops their content; ops must be applied in list order.
	mat *trace.Materializer
}

const (
	kib = 1 << 10
	mib = 1 << 20

	bulkFileBytes = 2 * mib
	bulkRing      = 4 // live files per bulk_transfer workspace
	traceMaxBytes = 1 * mib
	mobileEvery   = 5 * time.Second
)

var workloads = []*workload{
	{
		Name:       "meta_small",
		Why:        "closed loop, 32 workspaces x 2 devices, unique 1 KB files: metadata-bound, so wire, mq, omq, core and metastore+WAL do the work and chunker and objstore almost none",
		Workspaces: 32, Devices: 2, Closed: true,
		plan: func(w *workload, seed int64, _, _ time.Duration) *plan {
			return &plan{closed: func(ws, i int) opSpec {
				return opSpec{WS: ws, Kind: opAdd, Path: fmt.Sprintf("f%06d.dat", i), Size: kib, Seed: mix(seed, ws, i)}
			}}
		},
	},
	{
		Name:       "bulk_transfer",
		Why:        "closed loop, 2 workspaces x 2 devices, 2 MB files, 2 ADD : 1 one-chunk overwrite : 1 prepend: data-bound, so chunker, transfer pipeline and objstore dominate; dedup shows",
		Workspaces: 2, Devices: 2, Closed: true,
		plan: func(w *workload, seed int64, _, _ time.Duration) *plan {
			return &plan{closed: func(ws, i int) opSpec {
				// ADD p, overwrite p, ADD p+1, prepend p+1, ... over a ring of
				// bulkRing paths, so every update follows the ADD of its file
				// and the live set stays bounded.
				op := opSpec{WS: ws, Path: fmt.Sprintf("big%d.bin", (i/2)%bulkRing), Seed: mix(seed, ws, i)}
				switch i % 4 {
				case 0, 2:
					op.Kind, op.Size = opAdd, bulkFileBytes
				case 1:
					op.Kind, op.Size = opOverwrite, 256*kib
				case 3:
					op.Kind, op.Size = opPrepend, 100+int(op.Seed%300)
				}
				return op
			}}
		},
	},
	{
		Name:       "fanout",
		Why:        "open loop 40 commits/s, 1 workspace x 24 devices, rotating writer, 4 KB files: one commit, 23 notifications and downloads, sync time is the slowest of 23, so reader-side cost shows",
		Workspaces: 1, Devices: 24, Rate: 40,
		plan: func(w *workload, seed int64, warm, window time.Duration) *plan {
			r := rand.New(rand.NewSource(seed))
			dues := schedule(r, w.Rate, warm, window, nil)
			ops := make([]opSpec, len(dues))
			for i, due := range dues {
				writer := i % w.Devices
				ops[i] = opSpec{Due: due, Writer: writer, Kind: opAdd,
					Path: fmt.Sprintf("d%02d/f%06d.dat", writer, i), Size: 4 * kib, Seed: mix(seed, writer, i)}
			}
			return &plan{open: ops}
		},
	},
	{
		Name:       "trace_mix",
		Why:        "open loop 10 ops/s on the UB1 day shape, 8 workspaces x 3 devices by Zipf(1.2), the paper's generated trace (ADD/UPDATE/REMOVE), a mobile device per workspace resyncing: the all-layers mix",
		Workspaces: 8, Devices: 3, Mobile: true, Rate: 10,
		plan: func(w *workload, seed int64, warm, window time.Duration) *plan {
			r := rand.New(rand.NewSource(seed))
			_, day8 := trace.UB1WeekAndDay8(seed)
			dues := schedule(r, w.Rate, warm, window, day8.Rates)
			// The op sequence and its sizes are the one trace of the paper's
			// parameters; the seed decides when each op is due, which
			// workspace a file lands in, and its bytes. A trace per seed
			// would make p95 a lottery on how many big files a seed drew.
			gen := trace.Generate(trace.DefaultGenConfig())
			zipf := rand.NewZipf(r, 1.2, 1, uint64(w.Workspaces-1))
			home := make(map[string]int) // a file lives in the workspace its ADD picked
			ops := make([]opSpec, 0, len(dues))
			for i, due := range dues {
				if i >= len(gen.Ops) {
					break
				}
				top := gen.Ops[i]
				if top.Size > traceMaxBytes {
					top.Size = traceMaxBytes
				}
				ws, seen := home[top.Path]
				if !seen {
					ws = int(zipf.Uint64())
					home[top.Path] = ws
				}
				ops = append(ops, opSpec{Due: due, WS: ws, Kind: opTrace, Path: top.Path, Size: int(top.Size), Trace: top})
			}
			return &plan{open: ops, mat: trace.NewMaterializer(seed)}
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// mix derives a content seed from the run seed and an op's coordinates.
func mix(seed int64, a, b int) uint64 {
	h := fnv.New64a()
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], uint64(a))
	binary.LittleEndian.PutUint64(buf[16:], uint64(b))
	_, _ = h.Write(buf[:])
	return h.Sum64()
}

// schedule draws the send times of an open-loop workload: a Poisson process
// of the given mean rate over [-warm, window), conditioned on its expected
// count so that every seed offers the same number of ops. Given the count,
// Poisson arrival times are independent draws from the normalised rate
// curve: uniform during warm-up, and inside the window either uniform or,
// with shape, proportional to shape stretched over the window.
func schedule(r *rand.Rand, rate float64, warm, window time.Duration, shape []float64) []time.Duration {
	var dues []time.Duration
	for i, n := 0, int(rate*warm.Seconds()+0.5); i < n; i++ {
		dues = append(dues, -time.Duration(r.Float64()*float64(warm)))
	}
	cum := make([]float64, len(shape)+1)
	for i, v := range shape {
		cum[i+1] = cum[i] + v
	}
	for i, n := 0, int(rate*window.Seconds()+0.5); i < n; i++ {
		pos := r.Float64() // position in the window, as a share of it
		if len(shape) > 0 {
			u := r.Float64() * cum[len(shape)]
			k := sort.SearchFloat64s(cum, u)
			if k > 0 {
				k--
			}
			k = min(k, len(shape)-1)
			pos = (float64(k) + (u-cum[k])/shape[k]) / float64(len(shape))
		}
		dues = append(dues, time.Duration(pos*float64(window)))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	return dues
}

// fillContent writes deterministic file content in the style of
// trace.Materializer: a tenth text-like runs (compressible), the rest
// incompressible, as personal-cloud files mostly are. It is an xorshift
// generator because math/rand's Read would cost the 2-core box a visible
// share of a 4 MB commit.
func fillContent(dst []byte, seed uint64) {
	x := seed | 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 .,\n"
	textEnd := len(dst) / 10
	for i := 0; i < textEnd; {
		v := next()
		ch := alphabet[v%uint64(len(alphabet))]
		for run := 1 + int((v>>8)%12); run > 0 && i < textEnd; run-- {
			dst[i] = ch
			i++
		}
	}
	i := textEnd
	for ; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], next())
	}
	for ; i < len(dst); i++ {
		dst[i] = byte(next())
	}
}

// content builds the file content op leaves behind, given the file's
// content before it (nil for a new file). A nil result means the op removes
// the file. Trace ops must be built in list order.
func (p *plan) content(op opSpec, base []byte) ([]byte, error) {
	switch op.Kind {
	case opAdd:
		data := make([]byte, op.Size)
		fillContent(data, op.Seed)
		return data, nil
	case opOverwrite:
		// Rewrite op.Size bytes well inside the chunk that holds the middle
		// of the file, so exactly one fixed chunk changes.
		data := append([]byte(nil), base...)
		start := len(base) / 2 / chunker.DefaultChunkSize * chunker.DefaultChunkSize
		start = min(start+chunker.DefaultChunkSize/4, max(len(base)-op.Size, 0))
		fillContent(data[start:min(start+op.Size, len(data))], op.Seed)
		return data, nil
	case opPrepend:
		data := make([]byte, op.Size+len(base))
		fillContent(data[:op.Size], op.Seed)
		copy(data[op.Size:], base)
		return data, nil
	case opTrace:
		return p.mat.Apply(op.Trace)
	default:
		return nil, fmt.Errorf("unknown op kind %d", op.Kind)
	}
}

// opListHash identifies an op list: two plans of the same workload and seed
// must agree on it.
func opListHash(ops []opSpec) uint64 {
	h := fnv.New64a()
	for _, op := range ops {
		fmt.Fprintf(h, "%d|%d|%d|%d|%s|%d|%d|%d|%d|%d\n", op.Due, op.WS, op.Writer, op.Kind, op.Path,
			op.Size, op.Seed, op.Trace.Action, op.Trace.Pattern, op.Trace.ChangeBytes)
	}
	return h.Sum64()
}
