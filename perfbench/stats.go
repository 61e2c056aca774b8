package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tailCandidates are the percentiles a tail figure may be reported at, from
// the highest down.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// supportedPercentile returns the highest percentile not above want that
// leaves at least ten of n samples beyond it, so a reported tail always rests
// on ten or more observations. With fewer than 20 samples it returns 50.
func supportedPercentile(n int, want float64) float64 {
	for _, p := range tailCandidates {
		if p > want {
			continue
		}
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 50
}

// percentile returns the nearest-rank p-th percentile of xs (sorted in
// place). It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// tail returns the want-th percentile of xs, or the highest percentile the
// sample supports when it is too small for want.
func tail(xs []float64, want float64) float64 {
	return percentile(xs, supportedPercentile(len(xs), want))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// processCPU returns the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MB since start
// or since the last resetPeakRSS.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// startUnit prepares a timed unit: it collects the heap, returns the freed
// memory to the OS and resets the kernel's peak-RSS mark, so every unit
// starts from the same footprint and peakRSSMB afterwards is that unit's
// own peak. Where the mark cannot be reset, peakRSSMB stays the process
// peak.
func startUnit() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// runtimeSample is a reading of the Go runtime's cumulative GC and
// allocation counters.
type runtimeSample struct {
	gcCPU, totalCPU, allocBytes float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: val(0), totalCPU: val(1), allocBytes: val(2)}
}

// runtimeDelta reports the GC share of CPU and the MB allocated between two
// readings.
func runtimeDelta(a, b runtimeSample) (gcFrac, allocMB float64) {
	if d := b.totalCPU - a.totalCPU; d > 0 {
		gcFrac = (b.gcCPU - a.gcCPU) / d
	}
	return gcFrac, (b.allocBytes - a.allocBytes) / 1e6
}

// cpuTicks reads the machine-wide CPU time counters of /proc/stat: the
// total and the part stolen by the hypervisor. ok is false where the file
// is missing.
func cpuTicks() (total, steal uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// stamp identifies the machine and build a result was measured on.
type stamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func currentStamp() stamp {
	return stamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit returns the VCS revision the binary was built from: the
// BENCH_COMMIT environment variable when set (run.sh passes the git HEAD),
// else the toolchain's build stamp, else "unknown" (a source checkout
// without git metadata).
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	return "unknown"
}

// stealSince returns the share of the machine's CPU time the hypervisor took
// since an earlier cpuTicks reading, or -1 where the counters are missing.
func stealSince(total0, steal0 uint64) float64 {
	total, steal, ok := cpuTicks()
	if !ok || total <= total0 {
		return -1
	}
	return float64(steal-steal0) / float64(total-total0)
}

// unitClock times one measured unit: its wall time and the CPU time the
// whole process used meanwhile. A kernel with paravirtual steal accounting
// leaves the time the hypervisor stole out of a process's CPU time, so on a
// shared host the CPU figure moves far less than the wall figure, which
// follows the host's load.
type unitClock struct {
	wall time.Time
	cpu  time.Duration
}

func startClock() unitClock { return unitClock{wall: time.Now(), cpu: processCPU()} }

// stop returns the wall and CPU seconds since start.
func (c unitClock) stop() (wall, cpu float64) {
	return time.Since(c.wall).Seconds(), (processCPU() - c.cpu).Seconds()
}

// units collects the wall and CPU seconds of a run's measured units.
type units struct{ wall, cpu []float64 }

func (u *units) add(wall, cpu float64) {
	u.wall = append(u.wall, wall)
	u.cpu = append(u.cpu, cpu)
}

// describe prints every unit's figures, these units' first, then traced's.
func (u units) describe(traced units) string {
	join := func(a, b []float64) []float64 { return append(append([]float64(nil), a...), b...) }
	return fmt.Sprintf("wall %.4g s, cpu %.4g s", join(u.wall, traced.wall), join(u.cpu, traced.cpu))
}

// report sets a run's timing metrics, medians over the untraced units: the
// CPU time, which is the bounded figure, and the wall time, which a traced
// run reports beside the tracing overhead (traced units' CPU time against
// the untraced units').
func (u units) report(b *bench, traced units) {
	b.set("cpu_s", median(u.cpu))
	b.set("load.wall_s", median(u.wall))
	if b.tr != nil {
		b.set("trace.overhead_pct", 100*(median(traced.cpu)/median(u.cpu)-1))
	}
}
