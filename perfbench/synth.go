package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/codegen"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/flowc"
	"repro/internal/link"
	"repro/internal/petri"
	"repro/internal/sched"
	"repro/internal/sim"
)

// synthInput is one FlowC system a synthesis job compiles.
type synthInput struct {
	name        string
	flowc, spec string
	// app carries the corpus oracle data (triggers, deterministic
	// outputs); nil for the paper apps.
	app *corpus.App
	// golden maps task file names to the pinned C of a paper app; nil
	// for corpus apps.
	golden map[string]string
}

// paperApps are the five example applications with golden C.
var paperApps = []struct{ name, flowc, spec string }{
	{"pfc", apps.PFC, apps.PFCSpec},
	{"pixelpipe", apps.PixelPipe, apps.PixelPipeSpec},
	{"divisors", apps.Divisors, apps.DivisorsSpec},
	{"falsepath_fixed", apps.FalsePathFixed, apps.FalsePathFixedSpec},
	{"multirate", apps.MultiRate, apps.MultiRateSpec},
}

// loadPaperApps pairs each paper app with its golden C files, read from
// the repository's golden directory.
func loadPaperApps(repo string) ([]synthInput, error) {
	var out []synthInput
	for _, a := range paperApps {
		dir := filepath.Join(repo, "internal", "apps", "testdata", "golden", a.name)
		files, err := filepath.Glob(filepath.Join(dir, "*.c"))
		if err != nil || len(files) == 0 {
			return nil, fmt.Errorf("golden C for %s not found under %s", a.name, dir)
		}
		g := map[string]string{}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			g[filepath.Base(f)] = string(b)
		}
		out = append(out, synthInput{name: a.name, flowc: a.flowc, spec: a.spec, golden: g})
	}
	return out, nil
}

func corpusInputs(as []*corpus.App) []synthInput {
	out := make([]synthInput, len(as))
	for i, a := range as {
		out[i] = synthInput{name: a.Name, flowc: a.FlowC, spec: a.Spec, app: a}
	}
	return out
}

// synthCounts are the exact work counters of one synthesis: pure
// functions of the input, so every repeat of the input must reproduce
// them, and so must every run of one seed.
type synthCounts struct {
	States, Kept     int
	StoreHot         int64
	CompileTrans     int
	LinkPlaces       int
	LinkTrans        int
	Segments         int
	CBytes, SrcBytes int
	Code             [32]byte // digest of the generated C, task by task
}

func countSynthesis(in synthInput, r *core.Result) synthCounts {
	c := synthCounts{SrcBytes: len(in.flowc) + len(in.spec)}
	for _, s := range r.Schedules {
		c.States += s.Stats.NodesCreated
		c.Kept += s.Stats.NodesKept
		c.StoreHot += s.Stats.StoreHotBytes
	}
	for _, p := range r.Procs {
		c.CompileTrans += len(p.Net.Transitions)
	}
	c.LinkPlaces = len(r.Sys.Net.Places)
	c.LinkTrans = len(r.Sys.Net.Transitions)
	for _, t := range r.Tasks {
		c.Segments += len(t.Segments)
	}
	h := sha256.New()
	for _, name := range sortedKeys(r.Code) {
		c.CBytes += len(r.Code[name])
		fmt.Fprintf(h, "%s\x00%d\x00%s", name, len(r.Code[name]), r.Code[name])
	}
	copy(c.Code[:], h.Sum(nil))
	return c
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// checkSynthesis is the output oracle of one synthesis: paper apps must
// reproduce their golden C byte for byte; corpus apps must run under the
// sim baseline with every channel capped at its guaranteed bound,
// deliver their deterministic outputs, and never exceed a bound.
func checkSynthesis(in synthInput, r *core.Result) error {
	if in.golden != nil {
		return checkGolden(in.golden, r.Code)
	}
	return simCheck(in.app, r, simTriggers)
}

// simTriggers is how many times the sim oracle fires each trigger.
const simTriggers = 3

func checkGolden(golden map[string]string, code map[string]string) error {
	if len(code) != len(golden) {
		return fmt.Errorf("generated %d tasks, golden has %d", len(code), len(golden))
	}
	for name, c := range code {
		want, ok := golden[name+".c"]
		if !ok {
			return fmt.Errorf("task %s has no golden file", name)
		}
		if c != want {
			return fmt.Errorf("task %s differs from its golden C", name)
		}
	}
	return nil
}

// simCheck mirrors the corpus property test's oracle: the free-running
// multi-task baseline, independent of the synthesized task, is run with
// each channel capped at the bound synthesis guarantees.
func simCheck(app *corpus.App, r *core.Result, triggers int) error {
	b := sim.NewBaseline(r.Sys, sim.PFC, 0)
	caps := map[string]int{}
	for _, ch := range r.Sys.Channels {
		bound := r.Bounds[ch.Place.ID]
		if bound <= 0 {
			return fmt.Errorf("channel %s: non-positive guaranteed bound %d", ch.Spec.Name, bound)
		}
		caps[ch.Spec.Name] = bound
	}
	b.CapacityOf = caps
	for _, trig := range app.Triggers {
		for k := 0; k < triggers; k++ {
			b.Input(trig).Push(int64(k%4 + 1))
		}
	}
	if _, err := b.Run(); err != nil {
		return fmt.Errorf("sim under guaranteed bounds: %w", err)
	}
	for _, trig := range app.Triggers {
		if n := b.Input(trig).Len(); n != 0 {
			return fmt.Errorf("trigger %s: %d inputs left unconsumed", trig, n)
		}
	}
	for out, per := range app.DetOutputs {
		if got, want := len(b.Output(out).Vals), per*triggers; got != want {
			return fmt.Errorf("output %s: delivered %d items, want %d", out, got, want)
		}
	}
	for name, ch := range b.Channels {
		if ch.MaxOccupancy > caps[name] {
			return fmt.Errorf("channel %s: occupancy %d exceeded guaranteed bound %d", name, ch.MaxOccupancy, caps[name])
		}
	}
	return nil
}

// coldOptions is what every corpus job synthesizes with: the defaults
// users get, with the process-global result cache bypassed so each job
// is a cold synthesis.
func coldOptions() *core.Options { return &core.Options{DisableCache: true} }

// stagedSynthesize runs the flow stage by stage in core's own order and
// opens a span around every call into a layer. Its C must be
// byte-identical to core.Synthesize's, which the traced run asserts.
func stagedSynthesize(tr *tracer, job, root int, flowcSrc, specSrc string) (*core.Result, error) {
	var (
		f    *flowc.File
		spec *link.Spec
		err  error
	)
	tr.do("flowc.parse", job, root, func() { f, err = flowc.ParseFile(flowcSrc) })
	if err != nil {
		return nil, err
	}
	tr.do("link.spec", job, root, func() { spec, err = link.ParseSpec(strings.NewReader(specSrc)) })
	if err != nil {
		return nil, err
	}
	tr.do("flowc.check", job, root, func() { err = flowc.CheckFile(f) })
	if err != nil {
		return nil, err
	}
	res := &core.Result{File: f, Code: map[string]string{}}
	tr.do("compile", job, root, func() {
		for _, p := range f.Processes {
			var cp *compile.CompiledProcess
			if cp, err = compile.CompileProcess(p); err != nil {
				return
			}
			res.Procs = append(res.Procs, cp)
		}
	})
	if err != nil {
		return nil, err
	}
	tr.do("link", job, root, func() { res.Sys, err = link.Link(res.Procs, spec) })
	if err != nil {
		return nil, err
	}
	sources := res.Sys.Net.UncontrollableSources()
	if len(sources) == 0 {
		return nil, fmt.Errorf("system %s has no uncontrollable inputs", spec.Name)
	}
	sp := tr.begin("sched", job, root)
	res.Schedules, err = findSchedules(tr, job, sp, res.Sys.Net, sources)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	tr.do("sched.indep", job, root, func() {
		if err = sched.CheckIndependence(res.Schedules); err == nil {
			res.Bounds = sched.CombinedPlaceBounds(res.Schedules)
		}
	})
	if err != nil {
		return nil, err
	}
	tr.do("core.shared", job, root, func() { res.SharedChannels = sharedChannels(res.Sys, res.Schedules) })
	for _, s := range res.Schedules {
		name := "task_" + res.Sys.Net.Transitions[s.Source].Name
		var task *codegen.Task
		tr.do("codegen.generate", job, root, func() { task, err = codegen.Generate(s, name) })
		if err != nil {
			return nil, err
		}
		res.Tasks = append(res.Tasks, task)
		tr.do("codegen.synth", job, root, func() {
			res.Code[name] = codegen.Synthesize(task, &codegen.SynthOptions{Sys: res.Sys, SharedChannels: res.SharedChannels})
		})
	}
	return res, nil
}

// findSchedules runs one search per source with the parallelism core
// resolves for default Options: up to GOMAXPROCS concurrent searches,
// each exploring on GOMAXPROCS/searches goroutines.
func findSchedules(tr *tracer, job, parent int, n *petri.Net, sources []int) ([]*sched.Schedule, error) {
	procs := runtime.GOMAXPROCS(0)
	workers := min(procs, len(sources))
	var opt *sched.Options
	if ew := procs / workers; ew > 1 {
		opt = &sched.Options{ExploreWorkers: ew}
	}
	out := make([]*sched.Schedule, len(sources))
	errs := make([]error, len(sources))
	search := func(i int) {
		tr.do("sched.find", job, parent, func() { out[i], errs[i] = sched.FindSchedule(n, sources[i], opt) })
	}
	if workers <= 1 {
		for i := range sources {
			if search(i); errs[i] != nil {
				return nil, errs[i]
			}
		}
		return out, nil
	}
	n.Warm()
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range sources {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			search(i)
			<-sem
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sharedChannels finds channel places with token flow in more than one
// schedule, as core does before code generation.
func sharedChannels(sys *link.System, set []*sched.Schedule) map[int]bool {
	out := map[int]bool{}
	if len(set) < 2 {
		return out
	}
	users := map[int]int{}
	for _, s := range set {
		seen := map[int]bool{}
		touch := func(pid int) {
			if sys.Net.Places[pid].Kind == petri.PlaceChannel && !seen[pid] {
				seen[pid] = true
				users[pid]++
			}
		}
		for _, tid := range s.InvolvedTransitions() {
			t := sys.Net.Transitions[tid]
			for _, a := range t.In {
				if t.OutWeight(a.Place) != a.Weight {
					touch(a.Place)
				}
			}
			for _, a := range t.Out {
				if t.Weight(a.Place) != a.Weight {
					touch(a.Place)
				}
			}
		}
	}
	for p, n := range users {
		if n > 1 {
			out[p] = true
		}
	}
	return out
}

// synthWorkload drives corpus-search and corpus-front: a closed loop
// with one caller over a deck of inputs.
type synthWorkload struct {
	inputs []synthInput
	// ref holds the counters of each input's first, oracle-checked
	// synthesis; later repeats must match them exactly.
	ref []*synthCounts
	// statesAll sums search states over every job, repeats included.
	statesAll int
	// checkTime is the time spent in output checks.
	checkTime time.Duration
	// latSum and runs accumulate each input's job latencies.
	latSum []time.Duration
	runs   []int
}

func newSynthWorkload(ins []synthInput) *synthWorkload {
	return &synthWorkload{inputs: ins, ref: make([]*synthCounts, len(ins)),
		latSum: make([]time.Duration, len(ins)), runs: make([]int, len(ins))}
}

// complete reports whether every input has a checked reference, that
// is whether a full pass ran.
func (w *synthWorkload) complete() bool {
	for _, c := range w.ref {
		if c == nil {
			return false
		}
	}
	return true
}

// rows reports each input's counters and mean latency.
func (w *synthWorkload) rows() []map[string]any {
	var out []map[string]any
	for i, c := range w.ref {
		if c == nil {
			continue
		}
		out = append(out, map[string]any{
			"name": w.inputs[i].name, "states": c.States, "kept": c.Kept, "c_bytes": c.CBytes,
			"link_places": c.LinkPlaces, "link_transitions": c.LinkTrans, "segments": c.Segments,
			"runs": w.runs[i], "mean_ms": w.latSum[i].Seconds() * 1e3 / float64(w.runs[i]),
		})
	}
	return out
}

// job runs input i once, untraced (tr == nil) or traced, and checks its
// output. It returns the job latency and the check outcome.
func (w *synthWorkload) job(tr *tracer, jobID, i int) (lat time.Duration, check func() error) {
	in := w.inputs[i]
	var (
		res *core.Result
		err error
	)
	if tr == nil {
		t0 := time.Now()
		res, err = core.Synthesize(in.flowc, in.spec, coldOptions())
		lat = time.Since(t0)
	} else {
		root := tr.begin("job", jobID, -1)
		t0 := time.Now()
		res, err = stagedSynthesize(tr, jobID, root, in.flowc, in.spec)
		lat = time.Since(t0)
		tr.end(root)
	}
	w.latSum[i] += lat
	w.runs[i]++
	return lat, func() error {
		if err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}
		if tr != nil {
			if err := w.compareWithCore(tr, jobID, in, res); err != nil {
				return err
			}
		}
		t0 := time.Now()
		defer func() { w.checkTime += time.Since(t0) }()
		return w.verify(i, res)
	}
}

// compareWithCore synthesizes the input through the untraced facade,
// timing it as core.synth, and requires byte-identical C.
func (w *synthWorkload) compareWithCore(tr *tracer, jobID int, in synthInput, staged *core.Result) error {
	var (
		ref *core.Result
		err error
	)
	tr.do("core.synth", jobID, -1, func() { ref, err = core.Synthesize(in.flowc, in.spec, coldOptions()) })
	if err != nil {
		return fmt.Errorf("%s: core: %w", in.name, err)
	}
	for name, c := range ref.Code {
		if staged.Code[name] != c {
			return fmt.Errorf("%s: staged C of %s differs from core's", in.name, name)
		}
	}
	if len(ref.Code) != len(staged.Code) {
		return fmt.Errorf("%s: staged run made %d tasks, core %d", in.name, len(staged.Code), len(ref.Code))
	}
	return nil
}

// verify runs the oracle on an input's first synthesis and compares
// every repeat against that checked reference.
func (w *synthWorkload) verify(i int, res *core.Result) error {
	in := w.inputs[i]
	c := countSynthesis(in, res)
	w.statesAll += c.States
	if w.ref[i] == nil {
		if err := checkSynthesis(in, res); err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}
		w.ref[i] = &c
		return nil
	}
	if c != *w.ref[i] {
		return fmt.Errorf("%s: repeat synthesis changed its output or work counters", in.name)
	}
	return nil
}

// counters totals the exact counters over one pass of the distinct
// inputs that have been synthesized.
func (w *synthWorkload) counters() map[string]float64 {
	var t synthCounts
	for _, c := range w.ref {
		if c == nil {
			continue
		}
		t.States += c.States
		t.Kept += c.Kept
		t.StoreHot += c.StoreHot
		t.CompileTrans += c.CompileTrans
		t.LinkPlaces += c.LinkPlaces
		t.LinkTrans += c.LinkTrans
		t.Segments += c.Segments
		t.CBytes += c.CBytes
		t.SrcBytes += c.SrcBytes
	}
	return map[string]float64{
		"sched.states":        float64(t.States),
		"sched.kept":          float64(t.Kept),
		"sched.store_hot_mb":  float64(t.StoreHot) / mb,
		"compile.transitions": float64(t.CompileTrans),
		"link.places":         float64(t.LinkPlaces),
		"link.transitions":    float64(t.LinkTrans),
		"codegen.segments":    float64(t.Segments),
		"codegen.c_kb":        float64(t.CBytes) / 1024,
		"flowc.src_kb":        float64(t.SrcBytes) / 1024,
		"gen_code_bytes":      float64(t.CBytes),
	}
}

// synthLayerMetrics turns a traced synthesis run into its per-layer
// metrics.
func synthLayerMetrics(ls layerStats, cnt map[string]float64, statesAll int, m map[string]float64) {
	m["flowc.parse_s"] = ls.meanSeconds("flowc.parse")
	m["flowc.check_s"] = ls.meanSeconds("flowc.check")
	m["compile.s"] = ls.meanSeconds("compile")
	m["link.spec_s"] = ls.meanSeconds("link.spec")
	m["link.s"] = ls.meanSeconds("link")
	m["sched.find_s"] = ls.meanSeconds("sched")
	m["sched.indep_s"] = ls.meanSeconds("sched.indep")
	m["codegen.generate_s"] = perJob(ls, "codegen.generate")
	m["codegen.synth_s"] = perJob(ls, "codegen.synth")
	m["core.synth_s"] = ls.meanSeconds("core.synth")
	if d := ls.total["sched.find"].Seconds(); d > 0 {
		// States per second of search: every job's searches summed,
		// over the time those searches ran.
		m["sched.states_per_s"] = float64(statesAll) / d
	}
	for _, k := range []string{"flowc.src_kb", "compile.transitions", "link.places", "link.transitions",
		"codegen.segments", "codegen.c_kb", "sched.states", "sched.store_hot_mb"} {
		m[k] = cnt[k]
	}
	if cnt["sched.states"] > 0 {
		m["sched.kept_ratio"] = cnt["sched.kept"] / cnt["sched.states"]
	}
	if ls.jobs > 0 {
		m["trace.overhead_s"] = ls.remainder.Seconds() / float64(ls.jobs)
	}
}

// perJob is the time a layer takes per job: a job with several tasks
// enters codegen once per task.
func perJob(ls layerStats, name string) float64 {
	if ls.count["sched"] == 0 {
		return 0
	}
	return ls.total[name].Seconds() / float64(ls.count["sched"])
}

// productCheck synthesizes the five paper apps once, outside any timed
// phase, checks them against their golden C and simulates the
// synthesized PFC task. It yields gen_task_kcycles, the paper's Table 1
// measure of generated-code run time.
func productCheck(repo string) (kcycles float64, codeBytes int, err error) {
	ins, err := loadPaperApps(repo)
	if err != nil {
		return 0, 0, err
	}
	for _, in := range ins {
		r, err := core.Synthesize(in.flowc, in.spec, coldOptions())
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", in.name, err)
		}
		if err := checkGolden(in.golden, r.Code); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", in.name, err)
		}
		for _, c := range r.Code {
			codeBytes += len(c)
		}
		if in.name == "pfc" {
			cycles, err := sim.RunTaskPFC(r, sim.Workload{Frames: pfcFrames}, sim.PFC)
			if err != nil {
				return 0, 0, fmt.Errorf("simulate pfc task: %w", err)
			}
			kcycles = float64(cycles) / 1000
		}
	}
	return kcycles, codeBytes, nil
}

// pfcFrames is the fixed frame count the PFC task is simulated over.
const pfcFrames = 100
