// Command perfbench is the synthesis benchmark: it drives the FlowC
// quasi-static synthesis flow, its resident server and the PNML
// reachability path from outside, through their public package
// functions, one workload per process. Untraced runs print the
// end-to-end metrics; traced runs (-trace 1) wrap every call into a
// layer in a span and print the per-layer metrics. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// See README.md for the workloads and metrics; run.py builds and runs
// it.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dist"
)

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []string{"corpus-search", "corpus-front", "server-mixed", "reach-pnml"}

// sizes fixes how big a run's inputs are. The benchmark runs
// fullSizes; the tests shrink them.
type sizes struct {
	searchSlots int  // corpus-search strata, one app each
	frontApps   int  // corpus-front deck
	serverWarm  int  // server-mixed apps warmed into the cache
	ringNets    int  // reach-pnml seeded ring-product nets
	large       bool // reach-pnml includes the ExploreLarge net
	setupReps   int  // set-ups per run; setup_s is their median
	// Seconds one pass of each closed loop is sized at: a run of S
	// seconds makes round(S/pass) passes. 0 means one pass.
	searchPass, frontPass, reachPass float64
	// The trace tour's front apps, ring nets and server seconds.
	tourApps, tourRings int
	tourServerSeconds   float64
}

// fullSizes. The pass counts are fixed per run length, not timed, so
// the tail's sample count does not move with the code's speed. On the
// 2-vCPU machine the benchmark was defined on, a corpus-search pass
// takes ~2.1 s, a corpus-front pass ~0.85 s and a reach-pnml pass
// ~1.7 s; a 20-second run makes 8, 24 and 12 passes. corpus-search
// makes 8, not 10: its two heaviest apps run once a pass and take
// ~0.6 s and ~0.35 s; the tail rank, tailBeyond samples from the top,
// falls on the second one with up to 10 passes and on the first with
// 11 or more, so a pass count near 10 would switch it between them.
var fullSizes = sizes{
	searchSlots: 40, frontApps: 1000, serverWarm: 200, ringNets: 40, large: true, setupReps: 11,
	searchPass: 2.5, frontPass: 0.85, reachPass: 1.7,
	tourApps: 50, tourRings: 4, tourServerSeconds: 1,
}

func main() {
	// Spawned dist workers re-execute this binary; they must become
	// workers before anything else runs.
	dist.MaybeWorker()
	os.Exit(run(os.Args[1:], os.Stdout))
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	repo     string // repository root: golden C and the PNML suite
	state    string // directory for result files, spans and counters
	commit   string
	// binary identifies the running executable (a digest of its
	// bytes); exact counters are compared only between runs of one
	// binary, so a change that legitimately moves a counter starts a
	// fresh record instead of failing against the parent's.
	binary string
	sizes  sizes
}

// report is a finished run.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	// counters are the run's exact work counters over one pass of its
	// distinct inputs; nil when no full pass completed. inputs digests
	// the inputs they were counted on.
	counters map[string]float64
	inputs   string
	info     map[string]any
	tracer   *tracer
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := runConfig{sizes: fullSizes}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: corpus-search, corpus-front, server-mixed or reach-pnml")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced mode and prints per-layer metrics")
	fs.StringVar(&cfg.repo, "repo", ".", "repository root")
	fs.StringVar(&cfg.state, "state", filepath.Join(".bench_build", "perfbench"), "directory for result, span and counter files")
	fs.StringVar(&cfg.commit, "commit", "unknown", "commit the binary was built from, recorded with the result")
	calibrate := fs.Bool("calibrate-pool", false, "print the corpus pool table (corpus_pool.txt) and exit")
	calibrateSrv := fs.Bool("calibrate-server", false, "measure the server's saturation throughput for -seconds per traffic kind, print it and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *calibrateSrv {
		if err := calibrateServer(stdout, cfg.seconds); err != nil {
			logf("%v", err)
			return 1
		}
		return 0
	}
	if *calibrate {
		if err := calibratePool(stdout); err != nil {
			logf("%v", err)
			return 1
		}
		return 0
	}
	cfg.binary = binaryID()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		logf("-trace must be 0 or 1")
		return 2
	}
	if cfg.seconds <= 0 {
		logf("-seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(cfg.state, 0o755); err != nil {
		logf("%v", err)
		return 1
	}
	rep, err := runWorkload(cfg)
	if err != nil {
		logf("%s: %v", cfg.workload, err)
		return 1
	}
	correct := rep.failed == 0
	drift := compareCounters(cfg, rep)
	for _, d := range drift {
		logf("exact counter changed between runs of seed %d: %s", cfg.seed, d)
	}
	if len(drift) > 0 {
		correct = false
	}
	if err := writeResult(cfg, rep, correct); err != nil {
		logf("%v", err)
	}
	if err := printResult(stdout, cfg, rep, correct); err != nil {
		logf("%v", err)
		return 1
	}
	if len(drift) > 0 {
		return 1
	}
	return 0
}

func runWorkload(cfg runConfig) (*report, error) {
	var (
		rep *report
		err error
	)
	switch cfg.workload {
	case "corpus-search", "corpus-front":
		rep, err = runSynth(cfg)
	case "server-mixed":
		rep, err = runServer(cfg)
	case "reach-pnml":
		rep, err = runReach(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
	}
	if err != nil {
		return nil, err
	}
	// The product check ends every run: the paper apps against their
	// golden C, and the synthesized PFC task's simulated cycles.
	kcycles, codeBytes, perr := productCheck(cfg.repo)
	rep.attempted += len(paperApps)
	if perr != nil {
		rep.failed++
		logf("product check failed: %v", perr)
	}
	if rep.counters != nil {
		rep.counters["gen_task_kcycles"] = kcycles
	}
	if cfg.trace {
		if err := tour(cfg, rep.metrics); err != nil {
			return nil, err
		}
	} else {
		rep.metrics["gen_task_kcycles"] = kcycles
		if _, ok := rep.metrics["gen_code_bytes"]; !ok {
			// reach-pnml generates no C; its gen_code_bytes is the
			// product check's, the paper apps' C.
			rep.metrics["gen_code_bytes"] = float64(codeBytes)
		}
		rep.metrics["success_rate"] = 1 - float64(rep.failed)/float64(rep.attempted)
	}
	return rep, nil
}

// quiesce settles the heap after set-up and restarts the peak-RSS
// counter, so the timed phase starts from the same state every run.
func quiesce() {
	runtime.GC()
	debug.FreeOSMemory()
	if !resetPeakRSS() {
		logf("cannot reset the peak-RSS counter; peak_rss_mb includes set-up")
	}
}

// warmUp runs one cold synthesis so lazy initialization is not charged
// to the first timed job.
func warmUp() error {
	_, err := core.Synthesize(apps.Divisors, apps.DivisorsSpec, coldOptions())
	return err
}

func runSynth(cfg runConfig) (*report, error) {
	var w *synthWorkload
	setupS, err := timeSetup(cfg.sizes.setupReps, func() (func(), error) {
		ins, err := synthDeck(cfg)
		if err != nil {
			return nil, err
		}
		w = newSynthWorkload(ins)
		return nil, warmUp()
	})
	if err != nil {
		return nil, err
	}
	rep := &report{metrics: map[string]float64{}, info: map[string]any{"deck": len(w.inputs)}}
	rep.inputs = digest(func(h io.Writer) {
		for _, in := range w.inputs {
			fmt.Fprintf(h, "%d:%s%d:%s", len(in.flowc), in.flowc, len(in.spec), in.spec)
		}
	})
	if cfg.trace {
		rep.tracer = newTracer()
	}
	quiesce()
	pass := cfg.sizes.searchPass
	if cfg.workload == "corpus-front" {
		pass = cfg.sizes.frontPass
	}
	lr := closedLoop(len(w.inputs), passesFor(cfg.seconds, pass), cfg.seconds, rand.New(rand.NewSource(cfg.seed)), nil, func(jobID, i int) (time.Duration, func() error) {
		return w.job(rep.tracer, jobID, i)
	})
	rep.attempted, rep.failed = lr.attempted, lr.failed
	if w.complete() {
		rep.counters = w.counters()
	}
	if cfg.trace {
		ls := rep.tracer.stats()
		synthLayerMetrics(ls, w.counters(), w.statesAll, rep.metrics)
		rep.metrics["sim.oracle_s"] = w.checkTime.Seconds() / float64(lr.attempted)
		rep.info["rows"] = w.rows()
		// Each traced job was also synthesized untraced (core.synth):
		// the difference of the means is the cost of tracing.
		rep.info["traced_minus_untraced_job_s"] = ls.meanSeconds("job") - ls.meanSeconds("core.synth")
		return rep, nil
	}
	lr.endToEndMetrics(rep.metrics, rep.info)
	rep.metrics["setup_s"] = setupS
	rep.metrics["gen_code_bytes"] = w.counters()["gen_code_bytes"]
	return rep, nil
}

// synthDeck builds a synthesis workload's inputs for the run's seed.
func synthDeck(cfg runConfig) ([]synthInput, error) {
	if cfg.workload == "corpus-front" {
		return corpusInputs(frontDeck(cfg.seed, cfg.sizes.frontApps)), nil
	}
	ins, err := loadPaperApps(cfg.repo)
	if err != nil {
		return nil, err
	}
	draw, err := searchDeck(cfg.seed, cfg.sizes.searchSlots)
	if err != nil {
		return nil, err
	}
	return append(ins, corpusInputs(draw)...), nil
}

func runServer(cfg runConfig) (*report, error) {
	var w *serverWorkload
	setupS, err := timeSetup(cfg.sizes.setupReps, func() (func(), error) {
		var err error
		if w, err = newServerWorkload(cfg.seed, cfg.seconds, serverRate, cfg.sizes.serverWarm); err != nil {
			return nil, err
		}
		return w.stop, w.start()
	})
	if err != nil {
		return nil, err
	}
	defer w.stop()
	rep := &report{metrics: map[string]float64{}, info: map[string]any{
		"rate_per_s": serverRate, "connections": serverConns, "warm_apps": w.warm,
		"distinct_apps": len(w.apps), "requests": len(w.arrivals)}}
	rep.inputs = digest(func(h io.Writer) {
		for _, a := range w.apps {
			fmt.Fprintf(h, "%d:%s%d:%s", len(a.FlowC), a.FlowC, len(a.Spec), a.Spec)
		}
		for _, a := range w.arrivals {
			fmt.Fprintf(h, "%d@%d,", a.app, a.at)
		}
	})
	if cfg.trace {
		rep.tracer = newTracer()
	}
	quiesce()
	stats0 := core.Stats()
	windows := w.run(rep.tracer, cfg.seconds/serverWindows)
	stats1 := core.Stats()
	c0 := time.Now()
	failed, codeBytes, err := w.check()
	if err != nil {
		return nil, err
	}
	checkTime := time.Since(c0)
	rep.attempted, rep.failed = len(w.results), failed
	rep.counters = map[string]float64{"gen_code_bytes": float64(codeBytes), "distinct_apps": float64(len(w.apps))}
	if cfg.trace {
		w.layerMetrics(rep.metrics, hitRatio(stats0, stats1))
		rep.metrics["sim.oracle_s"] = checkTime.Seconds() / float64(len(w.results))
		return rep, nil
	}
	lr := loopResult{windows: windows, attempted: len(w.results), checkTime: checkTime}
	lr.endToEndMetrics(rep.metrics, rep.info)
	rep.metrics["setup_s"] = setupS
	rep.metrics["gen_code_bytes"] = float64(codeBytes)
	return rep, nil
}

func runReach(cfg runConfig) (*report, error) {
	w := &reachWorkload{}
	setupS, err := timeSetup(cfg.sizes.setupReps, func() (func(), error) {
		docs, err := reachDeck(cfg.repo, cfg.seed, cfg.sizes.ringNets, cfg.sizes.large)
		if err != nil {
			return nil, err
		}
		pool, err := dist.SpawnLocal(distWorkers())
		if err != nil {
			return nil, err
		}
		w = newReachWorkload(docs, pool)
		teardown := func() { pool.Close() }
		// Warm the pool with one session on the smallest document.
		n, err := parseDoc(docs[0])
		if err == nil {
			_, _, err = analyzeDist(pool, n, docs[0].opt)
		}
		if err != nil {
			teardown()
			return nil, err
		}
		return teardown, nil
	})
	if err != nil {
		return nil, err
	}
	defer w.pool.Close()
	return w.measure(cfg, setupS)
}

func (w *reachWorkload) measure(cfg runConfig, setupS float64) (*report, error) {
	r0 := time.Now()
	if err := referenceFingerprints(w.docs); err != nil {
		return nil, err
	}
	rep := &report{metrics: map[string]float64{}, info: map[string]any{
		"deck": len(w.docs), "dist_workers": w.pool.NumWorkers(), "reference_s": time.Since(r0).Seconds()}}
	rep.inputs = digest(func(h io.Writer) {
		for _, d := range w.docs {
			fmt.Fprintf(h, "%d:%s%+v", len(d.doc), d.doc, d.opt)
		}
	})
	if cfg.trace {
		rep.tracer = newTracer()
	}
	quiesce()
	w.restarts0, _ = w.pool.RecoveryStats()
	lr := closedLoop(len(w.docs), passesFor(cfg.seconds, cfg.sizes.reachPass), cfg.seconds, rand.New(rand.NewSource(cfg.seed)), w.pids, func(jobID, i int) (time.Duration, func() error) {
		return w.job(rep.tracer, jobID, i)
	})
	rep.attempted, rep.failed = lr.attempted, lr.failed
	rep.info["wire_repeats_differing"] = w.wireDiffs
	if w.complete() {
		rep.counters = w.counters()
	}
	if cfg.trace {
		w.layerMetrics(rep.tracer.stats(), rep.metrics)
		rep.metrics["sim.oracle_s"] = lr.checkTime.Seconds() / float64(lr.attempted)
		return rep, nil
	}
	lr.endToEndMetrics(rep.metrics, rep.info)
	rep.metrics["setup_s"] = setupS
	return rep, nil
}

// tour measures, in a traced run, the layers the workload itself does
// not drive, with a short fixed pass of the other workloads' jobs, so
// every per-layer metric is present. Metrics the workload measured are
// kept.
func tour(cfg runConfig, m map[string]float64) error {
	have := func(k string) bool { _, ok := m[k]; return ok }
	put := func(src map[string]float64) {
		for k, v := range src {
			if !have(k) {
				m[k] = v
			}
		}
	}
	if !have("flowc.parse_s") {
		w := newSynthWorkload(corpusInputs(frontDeck(cfg.seed, cfg.sizes.tourApps)))
		tr := newTracer()
		lr := closedLoop(len(w.inputs), 1, 0, rand.New(rand.NewSource(cfg.seed)), nil, func(jobID, i int) (time.Duration, func() error) {
			return w.job(tr, jobID, i)
		})
		if lr.failed > 0 {
			return errors.New("tour: synthesis checks failed")
		}
		sm := map[string]float64{"sim.oracle_s": w.checkTime.Seconds() / float64(lr.attempted)}
		synthLayerMetrics(tr.stats(), w.counters(), w.statesAll, sm)
		put(sm)
	}
	if !have("server.request_s") {
		w, err := newServerWorkload(cfg.seed, cfg.sizes.tourServerSeconds, serverRate, cfg.sizes.serverWarm)
		if err != nil {
			return err
		}
		if err := w.start(); err != nil {
			return err
		}
		s0 := core.Stats()
		w.run(nil, cfg.sizes.tourServerSeconds)
		s1 := core.Stats()
		w.stop()
		sm := map[string]float64{}
		w.layerMetrics(sm, hitRatio(s0, s1))
		put(sm)
	}
	if !have("pnml.parse_s") {
		docs, err := reachDeck(cfg.repo, cfg.seed, cfg.sizes.tourRings, false)
		if err != nil {
			return err
		}
		if err := referenceFingerprints(docs); err != nil {
			return err
		}
		pool, err := dist.SpawnLocal(distWorkers())
		if err != nil {
			return err
		}
		defer pool.Close()
		w := newReachWorkload(docs, pool)
		tr := newTracer()
		lr := closedLoop(len(docs), 1, 0, rand.New(rand.NewSource(cfg.seed)), w.pids, func(jobID, i int) (time.Duration, func() error) {
			return w.job(tr, jobID, i)
		})
		if lr.failed > 0 {
			return errors.New("tour: reachability checks failed")
		}
		sm := map[string]float64{}
		w.layerMetrics(tr.stats(), sm)
		put(sm)
	}
	for _, d := range perLayer {
		if !have(d.Name) {
			m[d.Name] = 0
		}
	}
	return nil
}

// printResult writes the one-line JSON result.
func printResult(w io.Writer, cfg runConfig, rep *report, correct bool) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, d := range defs {
		v, ok := rep.metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		ms[d.Name] = value{v, d.Unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": rep.attempted, "failed": rep.failed, "metrics": ms,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// environment records where a result was measured.
func environment(cfg runConfig) map[string]any {
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": cfg.commit, "binary": cfg.binary, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"workload": cfg.workload,
	}
}

// writeResult stores the full result (environment, metrics, counters,
// per-workload details) and, for traced runs, the spans.
func writeResult(cfg runConfig, rep *report, correct bool) error {
	base := filepath.Join(cfg.state, fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, b2i(cfg.trace)))
	env := environment(cfg)
	logf("%v", env)
	out := map[string]any{
		"environment": env, "correct": correct, "attempted": rep.attempted, "failed": rep.failed,
		"metrics": rep.metrics, "counters": rep.counters, "info": rep.info,
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return err
	}
	if rep.tracer != nil {
		return rep.tracer.write(base + ".spans.jsonl")
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// digest hashes what write writes, for naming a set of inputs.
func digest(write func(io.Writer)) string {
	h := sha256.New()
	write(h)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// binaryID digests the running executable, or returns "" when it
// cannot be read.
func binaryID() string {
	exe, err := os.Executable()
	if err != nil {
		return ""
	}
	f, err := os.Open(exe)
	if err != nil {
		return ""
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// compareCounters checks the run's exact counters against those an
// earlier run of the same binary, workload, seed and inputs recorded,
// records them when none exist, and returns the differences. Without a
// binary identity nothing is compared.
func compareCounters(cfg runConfig, rep *report) []string {
	got := rep.counters
	if got == nil {
		return nil
	}
	if cfg.binary == "" {
		logf("cannot identify the running binary; exact counters are not compared across runs")
		return nil
	}
	path := filepath.Join(cfg.state, fmt.Sprintf("counters-%s-seed%d-%s-%s.json", cfg.workload, cfg.seed, rep.inputs, cfg.binary))
	var want map[string]float64
	if b, err := os.ReadFile(path); err == nil && json.Unmarshal(b, &want) == nil {
		var diffs []string
		for _, k := range sortedKeys(got) {
			if w, ok := want[k]; ok && w != got[k] {
				diffs = append(diffs, fmt.Sprintf("%s: %v earlier, %v now", k, w, got[k]))
			}
		}
		return diffs
	}
	b, err := json.MarshalIndent(got, "", "  ")
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		logf("record counters: %v", err)
	}
	return nil
}
