package main

import (
	"math"
	"math/rand"
	"runtime/debug"
	"time"
)

// jobFunc runs deck entry i as job jobID and returns its latency plus
// the output check, which the loop runs outside the timed work.
type jobFunc func(jobID, i int) (time.Duration, func() error)

// window is one stretch of a timed phase: a pass over the deck for a
// closed loop. Throughput and per-job resources are computed per window
// and reported as the median window, so a burst of noise from outside
// the benchmark moves one window instead of the whole run.
type window struct {
	lat []time.Duration
	// in is the input each latency sample ran on: its deck index, or
	// its app for the server.
	in []int
	// timed is the window's wall time without output checks; used is
	// the resources its jobs consumed, checks excluded.
	timed   time.Duration
	used    usage
	peakRSS float64
}

// loopResult is what a timed phase measured.
type loopResult struct {
	windows   []window
	attempted int
	failed    int
	// checkTime is the wall time spent in output checks.
	checkTime time.Duration
}

// closedLoop runs passes whole passes over a deck of n inputs, each
// pass in a fresh seeded order, one job at a time. Whole passes keep the
// job mix of every window equal to the deck, and a fixed pass count
// keeps the number of latency samples, and so the tail percentile, the
// same for code of any speed. seconds is the run length the pass count
// was set for: a pass after the first is cut short, ending the loop,
// once the checks-excluded time passes maxStretch times it, so a slow
// machine still ends the run.
func closedLoop(n, passes int, seconds float64, rng *rand.Rand, pids []int, job jobFunc) loopResult {
	const maxStretch = 2
	var r loopResult
	budget := time.Duration(seconds * float64(time.Second))
	var total time.Duration
	jobID := 0
	for len(r.windows) < passes {
		// Every window starts from the same heap: garbage collected and
		// free pages returned, so its peak RSS does not depend on what
		// the collector left resident from the window before.
		debug.FreeOSMemory()
		resetPeakRSS()
		var w window
		start := sampleUsage(pids)
		var checkUse usage
		var checkWall time.Duration
		for _, i := range rng.Perm(n) {
			lat, check := job(jobID, i)
			jobID++
			c0 := sampleUsage(pids)
			err := check()
			c1 := sampleUsage(pids)
			d := c1.sub(c0)
			checkUse.cpu += d.cpu
			checkUse.alloc += d.alloc
			checkWall += c1.wall.Sub(c0.wall)
			r.attempted++
			w.lat = append(w.lat, lat)
			w.in = append(w.in, i)
			if err != nil {
				r.failed++
				logf("check failed: %v", err)
			}
			if len(r.windows) > 0 && total+c1.wall.Sub(start.wall)-checkWall > maxStretch*budget {
				passes = 0
				break
			}
		}
		end := sampleUsage(pids)
		w.peakRSS = peakRSSMB()
		w.timed = end.wall.Sub(start.wall) - checkWall
		w.used = end.sub(start)
		w.used.cpu -= checkUse.cpu
		w.used.alloc -= checkUse.alloc
		r.windows = append(r.windows, w)
		r.checkTime += checkWall
		total += w.timed
	}
	return r
}

// endToEndMetrics fills the job-based end-to-end metrics of a phase:
// latency figures over all the run's samples (see summarize), the rest
// the median window.
func (r loopResult) endToEndMetrics(m map[string]float64, info map[string]any) {
	var all []time.Duration
	var ins []int
	var rate, alloc, cpu, rss []float64
	var timed time.Duration
	for _, w := range r.windows {
		if len(w.lat) == 0 {
			continue // a server window no request was due in
		}
		jobs := float64(len(w.lat))
		all = append(all, w.lat...)
		ins = append(ins, w.in...)
		rate = append(rate, jobs/w.timed.Seconds())
		alloc = append(alloc, float64(w.used.alloc)/mb/jobs)
		cpu = append(cpu, w.used.cpu.Seconds()/jobs)
		rss = append(rss, w.peakRSS)
		timed += w.timed
	}
	s := summarize(all, ins)
	m["jobs_per_s"] = median(rate)
	m["latency_p50_ms"] = s.P50ms
	m["latency_tail_ms"] = s.Tailms
	info["tail_percentile"] = s.TailP
	m["alloc_mb_per_job"] = median(alloc)
	m["cpu_s_per_job"] = median(cpu)
	m["peak_rss_mb"] = median(rss)
	info["latency_samples"] = s.Samples
	info["windows"] = len(r.windows)
	info["window_peak_rss_mb"] = rss
	info["window_jobs_per_s"] = rate
	info["window_cpu_s_per_job"] = cpu
	info["timed_s"] = timed.Seconds()
	info["check_s"] = r.checkTime.Seconds()
}

// passesFor is the pass count of a closed-loop run of seconds whose
// passes were sized at passSeconds each.
func passesFor(seconds, passSeconds float64) int {
	if passSeconds <= 0 {
		return 1
	}
	return max(1, int(math.Round(seconds/passSeconds)))
}

// timeSetup runs a workload's set-up reps times and returns the median
// duration. Every repetition but the last is torn down; the last one's
// state is what the timed phase uses.
func timeSetup(reps int, setup func() (teardown func(), err error)) (float64, error) {
	var ds []float64
	for k := 0; k < reps; k++ {
		t0 := time.Now()
		teardown, err := setup()
		if err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
		if k < reps-1 && teardown != nil {
			teardown()
		}
	}
	return median(ds), nil
}
