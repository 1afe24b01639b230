package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

// runtimeCounters are a process's cumulative Go runtime counters, read
// from runtime/metrics when its round ends.
type runtimeCounters struct {
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	GCCycles   uint64 `json:"gc_cycles"`
	// GCCPUShare is the GC's share of the CPU time the runtime accounts
	// as used (total minus idle), per the /cpu/classes estimates.
	GCCPUShare float64 `json:"gc_cpu_share"`
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// readRuntime samples this process's runtime counters.
func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		s[i].Name = name
	}
	metrics.Read(s)
	return deriveCounters(s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64(), s[3].Value.Uint64(),
		s[4].Value.Float64(), s[5].Value.Float64(), s[6].Value.Float64())
}

// deriveCounters combines the samples of runtimeMetricNames, in order.
func deriveCounters(objects, tiny, bytes, cycles uint64, gcCPU, totalCPU, idleCPU float64) runtimeCounters {
	c := runtimeCounters{Allocs: objects + tiny, AllocBytes: bytes, GCCycles: cycles}
	if used := totalCPU - idleCPU; used > 0 {
		c.GCCPUShare = gcCPU / used
	}
	return c
}

// heapLive is the heap bytes the last GC marked live.
func heapLive() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// usage is what a finished child's rusage says about it.
type usage struct {
	CPUSeconds float64 // user + system
	MaxRSSKiB  int64
}

// usageOf converts a child's rusage (Linux reports ru_maxrss in KiB).
func usageOf(ru *syscall.Rusage) usage {
	return usage{
		CPUSeconds: float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9,
		MaxRSSKiB:  ru.Maxrss,
	}
}

// cpuTicks is the aggregate "cpu" line of /proc/stat.
type cpuTicks struct {
	Total, Steal uint64
}

// readCPUTicks reads /proc/stat; ok is false where it is unavailable.
func readCPUTicks() (cpuTicks, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, false
	}
	t, err := parseCPUTicks(string(b))
	return t, err == nil
}

// parseCPUTicks parses the first line of /proc/stat: user nice system
// idle iowait irq softirq steal [guest guest_nice]. Guest time is
// already counted in user and nice, so the total stops at steal.
func parseCPUTicks(stat string) (cpuTicks, error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var t cpuTicks
	for i, field := range f[1:9] {
		v, err := strconv.ParseUint(field, 10, 64)
		if err != nil {
			return cpuTicks{}, fmt.Errorf("/proc/stat field %d: %w", i+1, err)
		}
		t.Total += v
		if i == 7 {
			t.Steal = v
		}
	}
	return t, nil
}

// stealShare is the share of all CPU ticks between a and b that the
// hypervisor stole.
func stealShare(a, b cpuTicks) float64 {
	if b.Total <= a.Total {
		return 0
	}
	return float64(b.Steal-a.Steal) / float64(b.Total-a.Total)
}

// median of xs (0 for none); xs is not modified.
func median[T int64 | float64](xs []T) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return float64(s[n/2])
	}
	return (float64(s[n/2-1]) + float64(s[n/2])) / 2
}
