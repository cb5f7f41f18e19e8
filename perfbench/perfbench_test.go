package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dist"
	"repro/internal/pnml"
)

func TestMain(m *testing.M) {
	// The reach-pnml tests spawn dist workers by re-executing this
	// test binary.
	dist.MaybeWorker()
	os.Exit(m.Run())
}

// smallSizes shrinks every deck so a whole run takes well under a
// second (a few seconds under the race detector).
var smallSizes = sizes{
	searchSlots: 2, frontApps: 10, serverWarm: 5, ringNets: 2, setupReps: 1,
	tourApps: 5, tourRings: 1, tourServerSeconds: 0.05,
}

func testConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{
		workload: workload, seed: 7, seconds: 0.01, trace: trace,
		repo: "..", state: t.TempDir(), commit: "test", sizes: smallSizes,
	}
}

// TestSmoke runs every workload untraced and traced on tiny inputs and
// checks the printed result: exact keys, every metric with its unit, no
// failed job.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				cfg := testConfig(t, w, trace)
				rep, err := runWorkload(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if rep.failed != 0 || rep.attempted == 0 {
					t.Fatalf("attempted %d, failed %d", rep.attempted, rep.failed)
				}
				var out bytes.Buffer
				if err := printResult(&out, cfg, rep, true); err != nil {
					t.Fatal(err)
				}
				var res struct {
					Correct   *bool                     `json:"correct"`
					Attempted *int                      `json:"attempted"`
					Failed    *int                      `json:"failed"`
					Metrics   map[string]map[string]any `json:"metrics"`
				}
				dec := json.NewDecoder(&out)
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatal(err)
				}
				if res.Correct == nil || res.Attempted == nil || res.Failed == nil {
					t.Fatal("result lacks correct, attempted or failed")
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m["unit"] != d.Unit {
						t.Errorf("metric %s: got %v, want unit %s", d.Name, m, d.Unit)
					}
				}
				if trace && len(rep.tracer.spans) == 0 {
					t.Error("traced run recorded no spans")
				}
				if err := writeResult(cfg, rep, true); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric and workload lists in
// step with the benchmark's declaration at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(workloads, " ") {
		t.Errorf("workloads %v, BENCHMARK.json has %v", workloads, names)
	}
	check := func(kind string, got []metricDef, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, BENCHMARK.json has %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: %v, BENCHMARK.json has %v", kind, i, got[i], want[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range decl.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range decl.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layer)
}

// TestSeedGivesIdenticalInputs: one seed gives byte-identical inputs
// for every workload, another seed different ones.
func TestSeedGivesIdenticalInputs(t *testing.T) {
	inputs := func(seed int64) []string {
		var out []string
		search, err := searchDeck(seed, fullSizes.searchSlots)
		if err != nil {
			t.Fatal(err)
		}
		front := frontDeck(seed, fullSizes.frontApps)
		for _, set := range [][]*corpus.App{search, front} {
			out = append(out, digest(func(h io.Writer) {
				for _, a := range set {
					fmt.Fprintf(h, "%s\x00%s\x00", a.FlowC, a.Spec)
				}
			}))
		}
		sw, err := newServerWorkload(seed, 2, serverRate, fullSizes.serverWarm)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, digest(func(h io.Writer) {
			for _, a := range sw.apps {
				fmt.Fprintf(h, "%s\x00%s\x00", a.FlowC, a.Spec)
			}
			fmt.Fprintf(h, "%v", sw.arrivals)
		}))
		docs, err := reachDeck("..", seed, fullSizes.ringNets, true)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, digest(func(h io.Writer) {
			for _, d := range docs {
				h.Write(d.doc)
			}
		}))
		return out
	}
	a, b, c := inputs(5), inputs(5), inputs(6)
	for i, name := range workloads {
		if a[i] != b[i] {
			t.Errorf("%s: seed 5 gave different inputs twice", name)
		}
		if a[i] == c[i] {
			t.Errorf("%s: seeds 5 and 6 gave identical inputs", name)
		}
	}
}

// TestCorruptedOutputCounted: a corrupted output fails its check, the
// loop counts it and goes on.
func TestCorruptedOutputCounted(t *testing.T) {
	ins, err := loadPaperApps("..")
	if err != nil {
		t.Fatal(err)
	}
	div := ins[2]
	r, err := core.Synthesize(div.flowc, div.spec, coldOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSynthesis(div, r); err != nil {
		t.Fatalf("intact output failed its check: %v", err)
	}
	for name := range r.Code {
		r.Code[name] += "/* corrupted */"
	}
	if checkSynthesis(div, r) == nil {
		t.Error("corrupted C passed the golden check")
	}

	app := corpus.GenerateCorpus(3, 1, corpus.DefaultConfig())[0]
	cr, err := core.Synthesize(app.FlowC, app.Spec, coldOptions())
	if err != nil {
		t.Fatal(err)
	}
	in := synthInput{name: app.Name, flowc: app.FlowC, spec: app.Spec, app: app}
	if err := checkSynthesis(in, cr); err != nil {
		t.Fatalf("intact corpus output failed the sim oracle: %v", err)
	}
	for i := range cr.Bounds {
		cr.Bounds[i] = 0
	}
	if checkSynthesis(in, cr) == nil {
		t.Error("corrupted channel bounds passed the sim oracle")
	}

	lr := closedLoop(4, 1, 0, rand.New(rand.NewSource(1)), nil, func(jobID, i int) (time.Duration, func() error) {
		return time.Millisecond, func() error {
			if jobID == 0 {
				return errors.New("corrupted")
			}
			return nil
		}
	})
	if lr.attempted != 4 || lr.failed != 1 {
		t.Errorf("loop attempted %d, failed %d; want 4 and 1", lr.attempted, lr.failed)
	}
}

// TestServerReplyMismatchCounted: a reply whose C differs from the
// in-process synthesis is a failed job.
func TestServerReplyMismatchCounted(t *testing.T) {
	w, err := newServerWorkload(3, 0.05, serverRate, smallSizes.serverWarm)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.start(); err != nil {
		t.Fatal(err)
	}
	defer w.stop()
	w.run(nil, 0.05)
	if len(w.results) == 0 {
		t.Fatal("no requests sent")
	}
	w.results[0].code[0] ^= 1
	failed, _, err := w.check()
	if err != nil {
		t.Fatal(err)
	}
	if failed != 1 {
		t.Errorf("failed = %d, want 1", failed)
	}
}

// TestRepeatDriftDetected: a repeat whose output differs from the
// checked first synthesis fails and is recorded.
func TestRepeatDriftDetected(t *testing.T) {
	ins, err := loadPaperApps("..")
	if err != nil {
		t.Fatal(err)
	}
	w := newSynthWorkload(ins[2:3])
	r, err := core.Synthesize(w.inputs[0].flowc, w.inputs[0].spec, coldOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.verify(0, r); err != nil {
		t.Fatal(err)
	}
	if err := w.verify(0, r); err != nil {
		t.Fatalf("identical repeat failed: %v", err)
	}
	r.Schedules[0].Stats.NodesCreated++
	if w.verify(0, r) == nil {
		t.Error("a repeat with a different state count was not caught")
	}
}

// TestCounterDriftAcrossRuns: the counters file records the first run
// of a seed and reports later differences by the same binary.
func TestCounterDriftAcrossRuns(t *testing.T) {
	cfg := runConfig{workload: "corpus-front", seed: 9, state: t.TempDir(), binary: "b1"}
	rep := &report{counters: map[string]float64{"sched.states": 120}, inputs: "abc"}
	if d := compareCounters(cfg, rep); d != nil {
		t.Fatalf("first run reported %v", d)
	}
	if d := compareCounters(cfg, rep); d != nil {
		t.Fatalf("identical run reported %v", d)
	}
	rep.counters["sched.states"] = 121
	if d := compareCounters(cfg, rep); len(d) != 1 {
		t.Errorf("changed counter reported %v", d)
	}
	rep.inputs = "def"
	if d := compareCounters(cfg, rep); d != nil {
		t.Errorf("other inputs compared against the wrong record: %v", d)
	}
}

// TestCounterRecordPerBinary: runs of two different binaries (a parent
// commit and a change that moves a counter) never compare against each
// other, and a run whose binary is unknown compares against nothing.
func TestCounterRecordPerBinary(t *testing.T) {
	cfg := runConfig{workload: "corpus-search", seed: 3, state: t.TempDir(), binary: "parent"}
	rep := &report{counters: map[string]float64{"sched.states": 5000}, inputs: "abc"}
	if d := compareCounters(cfg, rep); d != nil {
		t.Fatalf("first run reported %v", d)
	}
	cfg.binary = "change"
	rep.counters["sched.states"] = 4000
	if d := compareCounters(cfg, rep); d != nil {
		t.Errorf("another binary compared against the parent's record: %v", d)
	}
	rep.counters["sched.states"] = 4001
	if d := compareCounters(cfg, rep); len(d) != 1 {
		t.Errorf("drift within one binary reported %v", d)
	}
	cfg.binary = ""
	if d := compareCounters(cfg, rep); d != nil {
		t.Errorf("an unidentified binary compared: %v", d)
	}
	if id := binaryID(); len(id) != 16 || id != binaryID() {
		t.Errorf("binaryID() = %q, not a stable 16-digit digest", id)
	}
}

// TestLastSessionStatsRead: Pool.LastSessionStats still describes the
// previous session after an analysis that never reached the pool;
// analyzeDist reads it only after a dist analysis.
func TestLastSessionStatsRead(t *testing.T) {
	pool, err := dist.SpawnLocal(1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	opt := pnml.AnalyzeOptions{MaxMarkings: 1000}
	a, stA, err := analyzeDist(pool, ringNet("a", []int{3, 4}), opt)
	if err != nil {
		t.Fatal(err)
	}
	if stA.States != a.Reach.Len() {
		t.Fatalf("session states %d, analysis %d", stA.States, a.Reach.Len())
	}
	b, err := pnml.Analyze(ringNet("b", []int{5, 5}), opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := pool.LastSessionStats(); got.States != stA.States {
		t.Fatalf("LastSessionStats moved without a session: %d", got.States)
	}
	_, stB, err := analyzeDist(pool, ringNet("b", []int{5, 5}), opt)
	if err != nil {
		t.Fatal(err)
	}
	if stB.States != b.Reach.Len() {
		t.Errorf("analyzeDist returned %d states, want %d", stB.States, b.Reach.Len())
	}
}

// TestCacheIsolation: synthesis jobs leave core's cache alone and the
// server workload starts from, and leaves, an empty cache.
func TestCacheIsolation(t *testing.T) {
	core.ResetCache()
	w := newSynthWorkload(corpusInputs(frontDeck(4, 3)))
	for i := range w.inputs {
		_, check := w.job(nil, i, i)
		if err := check(); err != nil {
			t.Fatal(err)
		}
	}
	if n := core.Stats().Entries; n != 0 {
		t.Fatalf("synthesis jobs left %d cache entries", n)
	}
	if _, err := core.Synthesize(apps.Divisors, apps.DivisorsSpec, nil); err != nil {
		t.Fatal(err)
	}
	sw, err := newServerWorkload(4, 0.05, serverRate, smallSizes.serverWarm)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.start(); err != nil {
		t.Fatal(err)
	}
	if n := core.Stats().Entries; n != smallSizes.serverWarm {
		t.Errorf("after warm-up the cache holds %d entries, want the %d warm apps", n, smallSizes.serverWarm)
	}
	sw.stop()
	if n := core.Stats().Entries; n != 0 {
		t.Errorf("stop left %d cache entries", n)
	}
}

// TestTracedStagesMatchCore: the staged run of PFC produces core's C
// and a span for every layer, inside the job span.
func TestTracedStagesMatchCore(t *testing.T) {
	ins, err := loadPaperApps("..")
	if err != nil {
		t.Fatal(err)
	}
	w := newSynthWorkload(ins[:1])
	tr := newTracer()
	_, check := w.job(tr, 0, 0)
	if err := check(); err != nil {
		t.Fatal(err)
	}
	ls := tr.stats()
	for _, name := range []string{"job", "flowc.parse", "link.spec", "flowc.check", "compile", "link",
		"sched", "sched.find", "sched.indep", "codegen.generate", "codegen.synth", "core.synth"} {
		if ls.count[name] == 0 {
			t.Errorf("no %s span", name)
		}
	}
	if ls.jobs != 1 || ls.remainder < 0 || ls.remainder > ls.total["job"] {
		t.Errorf("job span remainder %v of %v", ls.remainder, ls.total["job"])
	}
}

// TestTailRank: the tail is the highest nearest-rank percentile with
// at least ten samples above it, with no fixed ladder of percentiles.
func TestTailRank(t *testing.T) {
	for _, c := range []struct {
		n, want int
		p       float64
	}{{5, 3, 60}, {20, 10, 50}, {100, 90, 90}, {450, 440, 97.77}, {10000, 9990, 99.9}} {
		xs := make([]time.Duration, c.n)
		for i := range xs {
			xs[i] = time.Duration(c.n-i) * time.Millisecond // shuffled order does not matter
		}
		s := summarize(xs, nil)
		if got := tailRank(c.n); got != c.want {
			t.Errorf("tailRank(%d) = %d, want %d", c.n, got, c.want)
		}
		if s.Tailms != float64(c.want) || math.Abs(s.TailP-c.p) > 0.01 || s.Samples != c.n {
			t.Errorf("n=%d: tail %v ms at p%v over %d samples, want %d ms at p%v", c.n, s.Tailms, s.TailP, s.Samples, c.want, c.p)
		}
	}
}

// TestTailInputMedian: with repeated inputs the tail is taken over each
// input's median latency, so a stall on one repeat does not set it,
// while an input run once keeps its own latency.
func TestTailInputMedian(t *testing.T) {
	var lat []time.Duration
	var in []int
	// Inputs 0..39 run 5 times each at i ms; one repeat of each of the
	// eleven heaviest is stalled to 1000+i ms.
	for i := 0; i < 40; i++ {
		for r := 0; r < 5; r++ {
			d := time.Duration(i) * time.Millisecond
			if r == 0 && i >= 29 {
				d += time.Second
			}
			lat = append(lat, d)
			in = append(in, i)
		}
	}
	if s := summarize(lat, nil); s.Tailms < 1000 {
		t.Fatalf("raw tail %v ms, want a stalled sample", s.Tailms)
	}
	// Rank 190 of 200 falls on input 37's five repeats, median 37 ms.
	if s := summarize(lat, in); s.Tailms != 37 || s.P50ms != 19 {
		t.Errorf("tail %v ms, p50 %v ms, want 37 and 19", s.Tailms, s.P50ms)
	}
	// Eleven inputs run once (server misses) keep their own latency.
	for k := 0; k < 11; k++ {
		lat = append(lat, time.Duration(500+k)*time.Millisecond)
		in = append(in, 100+k)
	}
	if s := summarize(lat, in); s.Tailms != 500 {
		t.Errorf("tail with singletons %v ms, want 500", s.Tailms)
	}
}

// TestSearchDeckFixedStrata: the strata that hold the median and the
// tail take the same app for every seed; the seed picks the others.
func TestSearchDeckFixedStrata(t *testing.T) {
	n := fullSizes.searchSlots
	a, err := searchDeck(1, n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := searchDeck(2, n)
	if err != nil {
		t.Fatal(err)
	}
	differ := 0
	for s := range a {
		fixed := s >= n-fixedTop || s >= fixedMidLo && s < fixedMidHi
		switch {
		case fixed && a[s].Name != b[s].Name:
			t.Errorf("stratum %d: %s for seed 1, %s for seed 2", s, a[s].Name, b[s].Name)
		case !fixed && a[s].Name != b[s].Name:
			differ++
		}
	}
	if differ == 0 {
		t.Error("seeds 1 and 2 drew the same apps in every free stratum")
	}
}

// TestMinimalMix: every prefix of a minimal-app draw holds each class
// within one app of its share, whatever the seed.
func TestMinimalMix(t *testing.T) {
	shares := minimalShares()
	for _, seed := range []int64{1, 2} {
		var have [3]int
		for k, a := range minimalApps(rand.New(rand.NewSource(seed)), 200, "m") {
			have[minimalClass(a)]++
			for c, sh := range shares {
				if d := float64(have[c]) - sh*float64(k+1); d > 1 || d < -1 {
					t.Fatalf("seed %d: after %d apps class %d has %d, share %.2f", seed, k+1, c, have[c], sh)
				}
			}
		}
	}
}

// TestEmptyWindowIgnored: a server window that no request was due in
// adds no NaN to the metrics.
func TestEmptyWindowIgnored(t *testing.T) {
	full := window{lat: []time.Duration{time.Millisecond, 2 * time.Millisecond}, timed: time.Second,
		used: usage{cpu: time.Millisecond, alloc: mb}, peakRSS: 10}
	lr := loopResult{windows: []window{full, {timed: time.Second}}, attempted: 2}
	m := map[string]float64{}
	lr.endToEndMetrics(m, map[string]any{})
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v", k, v)
		}
	}
}
