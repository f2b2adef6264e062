package obs

import (
	"os"
	"runtime"
	"strconv"
	"strings"
)

// RegisterRuntimeMetrics registers the process self-telemetry gauge funcs —
// go_goroutines, go_heap_bytes and go_gc_pause_seconds (the most recent GC
// pause) — in reg. Gauge funcs are evaluated at scrape time only, so the
// ReadMemStats cost is paid per scrape, not per request. Admin.Serve calls
// this for every admin-enabled binary; it is idempotent.
func RegisterRuntimeMetrics(reg *Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("go_goroutines", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	reg.GaugeFunc("go_heap_bytes", func() float64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc)
	})
	reg.GaugeFunc("go_gc_pause_seconds", func() float64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		if m.NumGC == 0 {
			return 0
		}
		return float64(m.PauseNs[(m.NumGC+255)%256]) / 1e9
	})
}

// ProcessIO reads one counter of this process's /proc/self/io — syscr and
// syscw count its read- and write-family system calls — or 0 where the
// file or the counter is missing. Layer benchmarks and tests count system
// calls with it.
func ProcessIO(field string) int64 {
	data, _ := os.ReadFile("/proc/self/io")
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+": "); ok {
			n, _ := strconv.ParseInt(rest, 10, 64)
			return n
		}
	}
	return 0
}

// MinorFaults reads this process's minor page faults, field 10 of
// /proc/self/stat, or 0 where the file is missing.
func MinorFaults() int64 {
	data, _ := os.ReadFile("/proc/self/stat")
	i := strings.LastIndexByte(string(data), ')') // the command name may hold spaces
	if fields := strings.Fields(string(data[i+1:])); len(fields) > 7 {
		n, _ := strconv.ParseInt(fields[7], 10, 64) // fields resume at field 3
		return n
	}
	return 0
}
