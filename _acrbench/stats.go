package main

import (
	"bufio"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// newRNG returns a deterministic generator for one purpose of one seed, so
// each input stream (grids, schedules, samples) is independent of how much
// the others consumed.
func newRNG(seed uint64, stream string) *rand.Rand {
	h := uint64(14695981039346656037)
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// peakRSSMB reads the process's peak resident set size (VmHWM). Outside
// Linux it falls back to the Go runtime's total mapped memory.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "VmHWM:") {
				fields := strings.Fields(line)
				if len(fields) >= 2 {
					if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// hostTicks reads the machine-wide CPU time from /proc/stat, in clock
// ticks: busy (user, nice, system, irq, softirq) and steal — time the
// hypervisor ran another guest while this machine's CPUs wanted to run.
// Both read zero where /proc/stat is unavailable.
func hostTicks() (busy, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	v := make([]float64, 8)
	for i := range v {
		v[i], _ = strconv.ParseFloat(f[i+1], 64)
	}
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7]
}

// stealShare returns a function reporting the share of wanted CPU time
// the hypervisor stole since stealShare was called. Wall-clock numbers
// from a window with a large share are not comparable with quiet ones.
func stealShare() func() float64 {
	busy0, steal0 := hostTicks()
	return func() float64 {
		busy, steal := hostTicks()
		if d := (busy - busy0) + (steal - steal0); d > 0 {
			return (steal - steal0) / d
		}
		return 0
	}
}

// runtimeSample is a snapshot of the runtime counters the per-layer run
// differences: heap allocations and CPU split into GC and total.
type runtimeSample struct {
	allocs   uint64
	gcCPU    float64
	totalCPU float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var r runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[2].Value.Float64()
	}
	return r
}

// add accumulates the difference between two samples.
func (r *runtimeSample) add(before, after runtimeSample) {
	r.allocs += after.allocs - before.allocs
	r.gcCPU += after.gcCPU - before.gcCPU
	r.totalCPU += after.totalCPU - before.totalCPU
}

// perUnit reports allocations per unit of work and the GC share of CPU
// for an accumulated runtime delta.
func (r runtimeSample) perUnit(units float64) (allocs, gcRatio float64) {
	if units > 0 {
		allocs = float64(r.allocs) / units
	}
	if r.totalCPU > 0 {
		gcRatio = r.gcCPU / r.totalCPU
	}
	return allocs, gcRatio
}

// runPair runs the traced and the untraced pass of one operation of a
// traced run, the traced one first when tracedFirst, so that neither
// pass always runs on a cache or heap the other just warmed.
func runPair(tracedFirst bool, traced, plain func() (float64, error)) (tSec, pSec float64, err error) {
	if !tracedFirst {
		if pSec, err = plain(); err != nil {
			return 0, 0, err
		}
	}
	if tSec, err = traced(); err != nil {
		return 0, 0, err
	}
	if tracedFirst {
		pSec, err = plain()
	}
	return tSec, pSec, err
}
