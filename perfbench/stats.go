package main

// Clocks, process counters, order statistics, the in-process /metrics
// scrape and the host fingerprint.

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vpatch"
	"vpatch/internal/serve"
)

var epoch = time.Now()

// mono is monotonic nanoseconds since the run started.
func mono() int64 { return int64(time.Since(epoch)) }

// cpuNanos is the process's user+system CPU time.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// runtimeSample is a reading of the Go runtime's allocation and CPU
// accounting.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, 3)
	for i := range s {
		s[i].Name = runtimeNames[i]
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// heapLive is the heap memory the last GC cycle found live.
func heapLive() uint64 {
	s := []metrics.Sample{{Name: runtimeNames[3]}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func forceGC() {
	runtime.GC()
	debug.FreeOSMemory()
}

func median(v []float64) float64 { return percentile(v, 50) }

// percentile is the nearest-rank p-th percentile of v (0 for empty v).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := int(p/100*float64(len(s))+0.5) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// scrape reads the daemon's /metrics page in process and sums every
// sample per metric family (labels dropped).
func scrape(srv *serve.Server) map[string]float64 {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := make(map[string]float64)
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out
}

// cpuTicks reads the host's aggregate CPU clock ticks from /proc/stat:
// the ticks the hypervisor stole from this machine's vCPUs, and all
// ticks. ok is false where the file is unavailable.
func cpuTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:9] { // user .. steal; guest time is inside user
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, true
}

// provenance fingerprints the host and build.
func provenance(seed int64) map[string]any {
	var uts syscall.Utsname
	kernel := "unknown"
	if syscall.Uname(&uts) == nil {
		kernel = utsString(uts.Release[:])
	}
	return map[string]any{
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"kernel":        kernel,
		"active_kernel": vpatch.ActiveKernel().String(),
		"seed":          seed,
		"transport":     "loopback TCP, in-process daemon",
	}
}

func utsString(b []int8) string {
	var sb strings.Builder
	for _, c := range b {
		if c == 0 {
			break
		}
		sb.WriteByte(byte(c))
	}
	return sb.String()
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
