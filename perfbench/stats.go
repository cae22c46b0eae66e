package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks (the common "type 7" definition:
// position q·(n−1) of the sorted sample). xs is not modified; an empty
// sample gives 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// quartiles returns the three cut points of xs into four groups with
// the "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// definition the run-to-run spread of this benchmark is judged by. It
// needs at least two samples; fewer give all three equal to the sample
// (or 0 when empty).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// typical summarizes a latency sample split by matrix: the geometric
// mean over the matrices of each one's q-quantile. Every matrix counts
// the same however many samples it has, and the result moves smoothly
// with each matrix's latency, where a quantile of the pooled sample
// jumps from one matrix's latencies to another's. Matrices without
// samples are skipped; no samples at all give 0.
func typical(byMatrix [][]float64, q float64) float64 {
	logSum, n := 0.0, 0
	for _, xs := range byMatrix {
		if len(xs) > 0 {
			logSum += math.Log(percentile(xs, q))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// printLatencies prints a latency sample (ms) split by matrix: its
// size, the smallest per-matrix count, the pooled quartiles, the
// typical p50 and p90, and how many samples lie above their matrix's
// 90th percentile, the number a tail percentile needs to be at least
// ten.
func printLatencies(what string, byMatrix [][]float64) {
	var pooled []float64
	fewest, beyond := -1, 0
	for _, xs := range byMatrix {
		pooled = append(pooled, xs...)
		if fewest < 0 || len(xs) < fewest {
			fewest = len(xs)
		}
		p90 := percentile(xs, 0.9)
		for _, x := range xs {
			if x > p90 {
				beyond++
			}
		}
	}
	q1, q2, q3 := quartiles(pooled)
	fmt.Printf("%-10s n=%d (at least %d per matrix) quartiles %.3f %.3f %.3f ms, typical p50 %.3f p90 %.3f ms, %d above their matrix's p90\n",
		what, len(pooled), fewest, q1, q2, q3, typical(byMatrix, 0.5), typical(byMatrix, 0.9), beyond)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// peakRSSMiB reads the process's peak resident set size (VmHWM) from
// /proc/self/status, in MiB.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("perfbench: unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("perfbench: VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("perfbench: no VmHWM in /proc/self/status")
}

// hostCPU reads the host-wide CPU time counters of /proc/stat: the
// time the hypervisor ran other guests on this machine's CPUs (steal)
// and the total. It returns zeros when they cannot be read.
func hostCPU() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest times are already counted in user and nice
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuSeconds returns the user+system CPU time this process has used,
// over all its threads (0 if getrusage fails, which it does not for
// RUSAGE_SELF on Linux).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runtimeSample is a reading of the Go runtime's GC CPU and allocation
// counters, or a sum of differences of readings.
type runtimeSample struct {
	gcCPU, usedCPU, allocBytes float64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

// readRuntime forces a collection, so the runtime's CPU-class
// estimates (updated at GC boundaries) are current, and reads the
// counters.
func readRuntime() runtimeSample {
	runtime.GC()
	ss := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		ss[i].Name = name
	}
	metrics.Read(ss)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			return s.Value.Float64()
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		}
		return 0
	}
	return runtimeSample{
		gcCPU:      val(ss[0]),
		usedCPU:    val(ss[1]) - val(ss[2]),
		allocBytes: val(ss[3]),
	}
}

// add accumulates the difference of two readings taken around some
// work.
func (s *runtimeSample) add(before, after runtimeSample) {
	s.gcCPU += after.gcCPU - before.gcCPU
	s.usedCPU += after.usedCPU - before.usedCPU
	s.allocBytes += after.allocBytes - before.allocBytes
}

// perOp turns accumulated differences over ops operations into the
// share of used CPU spent in GC and the MiB allocated per operation.
func (s runtimeSample) perOp(ops int) (gcFrac, allocMiBPerOp float64) {
	return ratio(s.gcCPU, s.usedCPU), ratio(s.allocBytes, float64(ops)) / (1 << 20)
}
