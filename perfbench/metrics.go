package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's contract with BENCHMARK.json (a test keeps them in
// step).
type metricDef struct{ Name, Unit string }

// endToEnd is what an untraced run prints.
var endToEnd = []metricDef{
	{"jobs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"success_rate", "fraction"},
	{"alloc_mb_per_job", "MB"},
	{"cpu_s_per_job", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"gen_code_bytes", "bytes"},
	{"gen_task_kcycles", "kcycles"},
}

// perLayer is what a traced run prints. Times are means per job that
// entered the layer; counts (no _s suffix) are totals over one pass of
// the distinct inputs, so they repeat exactly for one seed.
var perLayer = []metricDef{
	{"flowc.parse_s", "s"},
	{"flowc.check_s", "s"},
	{"flowc.src_kb", "KB"},
	{"compile.s", "s"},
	{"compile.transitions", "count"},
	{"link.spec_s", "s"},
	{"link.s", "s"},
	{"link.places", "count"},
	{"link.transitions", "count"},
	{"codegen.generate_s", "s"},
	{"codegen.synth_s", "s"},
	{"codegen.segments", "count"},
	{"codegen.c_kb", "KB"},
	{"sched.find_s", "s"},
	{"sched.states", "count"},
	{"sched.states_per_s", "1/s"},
	{"sched.kept_ratio", "ratio"},
	{"sched.store_hot_mb", "MB"},
	{"sched.indep_s", "s"},
	{"core.synth_s", "s"},
	{"core.cache_hit_ratio", "ratio"},
	{"server.request_s", "s"},
	{"server.synth_s", "s"},
	{"server.overhead_s", "s"},
	{"server.gen_lag_ms", "ms"},
	{"pnml.parse_s", "s"},
	{"pnml.doc_kb", "KB"},
	{"pnml.analyze_s", "s"},
	{"petri.states", "count"},
	{"petri.edges", "count"},
	{"petri.store_hot_mb", "MB"},
	{"dist.wire_mb", "MB"},
	{"dist.levels", "count"},
	{"dist.coord_fires_ratio", "ratio"},
	{"dist.worker_store_mb", "MB"},
	{"dist.restarts", "count"},
	{"sim.oracle_s", "s"},
	{"trace.overhead_s", "s"},
}

const mb = 1 << 20

// tailBeyond is how many samples latency_tail_ms leaves above it.
const tailBeyond = 10

// rank is the nearest-rank position (1-based) of the p-th percentile
// among n samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return max(1, min(n, r))
}

// percentile returns the p-th percentile of sorted xs by the
// nearest-rank rule.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(p, len(sorted))-1]
}

// tailRank is the nearest-rank position of the highest percentile that
// leaves at least tailBeyond of n samples above it: rank n-tailBeyond,
// the percentile 100(n-tailBeyond)/n. Runs too short to leave that
// many fall back to the median's rank.
func tailRank(n int) int {
	return max(n-tailBeyond, rank(50, n))
}

// latencySummary is the timing part of a workload's result.
type latencySummary struct {
	P50ms, Tailms float64
	TailP         float64
	Samples       int
}

// summarize computes the median and the tail of a run's job latencies;
// in[k] is the input job k ran on, nil when every job ran on an input
// of its own. The median is over the samples as measured. The tail is
// the sample at tailRank(n) once each sample is replaced by the median
// latency of its input's jobs: closed-loop inputs repeat once a pass,
// and the server's warm apps, and its fresh apps through their
// variants, several times a run, so a host stall that hits one repeat
// does not set the tail; an input run once keeps its own latency.
func summarize(lat []time.Duration, in []int) latencySummary {
	xs := make([]float64, len(lat))
	for i, d := range lat {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	tail := inputMedians(xs, in)
	sort.Float64s(xs)
	sort.Float64s(tail)
	s := latencySummary{P50ms: percentile(xs, 50), TailP: math.NaN(), Tailms: math.NaN(), Samples: len(xs)}
	if n := len(xs); n > 0 {
		r := tailRank(n)
		s.Tailms, s.TailP = tail[r-1], 100*float64(r)/float64(n)
	}
	return s
}

// inputMedians returns xs with each sample replaced by the median of
// the samples of its input, in[k] being sample k's; nil in leaves xs as
// it is.
func inputMedians(xs []float64, in []int) []float64 {
	out := append([]float64(nil), xs...)
	if in == nil {
		return out
	}
	by := map[int][]float64{}
	for k, x := range xs {
		by[in[k]] = append(by[in[k]], x)
	}
	med := make(map[int]float64, len(by))
	for i, ys := range by {
		med[i] = median(ys)
	}
	for k := range out {
		out[k] = med[in[k]]
	}
	return out
}

// median of a copy of xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// usage is a snapshot of the process resources a job consumes.
type usage struct {
	wall  time.Time
	cpu   time.Duration // user+sys of this process and its live children
	alloc uint64        // cumulative Go heap bytes allocated
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// sampleUsage snapshots this process and the child processes pids.
func sampleUsage(pids []int) usage {
	metrics.Read(allocSample)
	return usage{wall: time.Now(), cpu: processCPU(pids), alloc: allocSample[0].Value.Uint64()}
}

// sub returns the resources consumed between u0 and u.
func (u usage) sub(u0 usage) usage {
	return usage{cpu: u.cpu - u0.cpu, alloc: u.alloc - u0.alloc}
}

// processCPU is the user+sys time of this process plus that of the live
// child processes pids (the dist workers), which getrusage cannot see
// until they are reaped.
func processCPU(pids []int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	d := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	for _, pid := range pids {
		d += procStatCPU(pid)
	}
	return d
}

// childPIDs lists the live children of this process from procfs; it
// returns nil where procfs lacks the children files.
func childPIDs() []int {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return nil
	}
	var out []int
	for _, t := range tasks {
		b, err := os.ReadFile("/proc/self/task/" + t.Name() + "/children")
		if err != nil {
			continue
		}
		for _, f := range strings.Fields(string(b)) {
			if pid, err := strconv.Atoi(f); err == nil {
				out = append(out, pid)
			}
		}
	}
	return out
}

// clockTick is USER_HZ, which Linux fixes at 100 for /proc stat fields.
const clockTick = 10 * time.Millisecond

// procStatCPU reads utime+stime of one process from /proc/<pid>/stat.
func procStatCPU(pid int) time.Duration {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name may hold spaces; fields restart after its ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(s[i+1:])
	// After ')' field 0 is state; utime and stime are fields 11 and 12.
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * clockTick
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so
// the peak reported covers only the timed phase. It reports whether the
// kernel accepted the reset.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the resident-set high-water mark of this process.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "VmHWM:") {
				f := strings.Fields(line)
				if len(f) >= 2 {
					kb, _ := strconv.ParseFloat(f[1], 64)
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}
