package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/dist"
	"repro/internal/petri"
	"repro/internal/pnml"
)

// pnmlDoc is one PNML document a reach-pnml job parses and analyzes.
type pnmlDoc struct {
	name string
	doc  []byte
	opt  pnml.AnalyzeOptions
	// want is the fingerprint of a serial in-process analysis.
	want string
}

// suiteOpts mirrors the conformance suite's budgets: unbounded-counter
// needs a token cap to terminate.
var suiteOpts = map[string]pnml.AnalyzeOptions{
	"unbounded-counter.pnml": {MaxMarkings: 4000, MaxTokensPerPlace: 6},
	"multirate-burst.pnml":   {MaxMarkings: 50000},
}

var defaultSuiteOpts = pnml.AnalyzeOptions{MaxMarkings: 100000}

const (
	// ringStates is the state count each seeded ring-product net aims
	// at (within ringTolerance), so seeds vary the nets' shapes but not
	// their size.
	ringStates    = 2000
	ringTolerance = 0.1
	// largePipes x largeStages is the 161,051-state ExploreLarge net.
	largePipes, largeStages = 5, 11
)

// ringNet builds a product of independent token rings, one per entry of
// stages; its reachable state count is the product of the entries.
func ringNet(name string, stages []int) *petri.Net {
	n := petri.New(name)
	for p, k := range stages {
		fuel := n.AddPlace(fmt.Sprintf("fuel%d", p), petri.PlaceChannel, 1)
		ps := make([]*petri.Place, k)
		for s := range ps {
			init := 0
			if s == 0 {
				init = 1
			}
			ps[s] = n.AddPlace(fmt.Sprintf("r%d_%d", p, s), petri.PlaceInternal, init)
		}
		for s := range ps {
			t := n.AddTransition(fmt.Sprintf("t%d_%d", p, s), petri.TransNormal)
			n.AddArc(ps[s], t, 1)
			n.AddArcTP(t, ps[(s+1)%k], 1)
			n.AddSelfLoop(fuel, t, 1)
		}
	}
	return n
}

// ringShape draws 3 or 4 ring lengths whose product is within
// ringTolerance of ringStates.
func ringShape(rng *rand.Rand) []int {
	for {
		pipes := 3 + rng.Intn(2)
		base := math.Pow(ringStates, 1/float64(pipes))
		stages := make([]int, pipes)
		prod := 1
		for i := 0; i < pipes-1; i++ {
			stages[i] = max(2, int(math.Round(base*(0.75+0.6*rng.Float64()))))
			prod *= stages[i]
		}
		stages[pipes-1] = max(2, int(math.Round(ringStates/float64(prod))))
		prod *= stages[pipes-1]
		if math.Abs(float64(prod)/ringStates-1) <= ringTolerance {
			return stages
		}
	}
}

func exportDoc(name string, n *petri.Net, opt pnml.AnalyzeOptions) (pnmlDoc, error) {
	b, err := pnml.ExportBytes(n)
	if err != nil {
		return pnmlDoc{}, fmt.Errorf("export %s: %w", name, err)
	}
	return pnmlDoc{name: name, doc: b, opt: opt}, nil
}

// reachDeck builds the reach-pnml documents: the vendored suite, the
// ExploreLarge net and nRings seeded ring-product nets, all exported
// or read as PNML bytes.
func reachDeck(repo string, seed int64, nRings int, large bool) ([]pnmlDoc, error) {
	files, err := filepath.Glob(filepath.Join(repo, "internal", "pnml", "testdata", "suite", "*.pnml"))
	if err != nil || len(files) == 0 {
		return nil, fmt.Errorf("PNML suite not found under %s", repo)
	}
	sort.Strings(files)
	var out []pnmlDoc
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		opt, ok := suiteOpts[filepath.Base(f)]
		if !ok {
			opt = defaultSuiteOpts
		}
		out = append(out, pnmlDoc{name: filepath.Base(f), doc: b, opt: opt})
	}
	if large {
		want := int(math.Pow(largeStages, largePipes))
		stages := make([]int, largePipes)
		for i := range stages {
			stages[i] = largeStages
		}
		d, err := exportDoc("explore-large", ringNet("explore-large", stages), pnml.AnalyzeOptions{MaxMarkings: want + 1})
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nRings; i++ {
		name := fmt.Sprintf("ring%02d", i)
		d, err := exportDoc(name, ringNet(name, ringShape(rng)), pnml.AnalyzeOptions{MaxMarkings: 2 * ringStates})
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// referenceFingerprints analyzes every document serially in-process:
// the oracle the dist runs must reproduce.
func referenceFingerprints(docs []pnmlDoc) error {
	for i := range docs {
		n, err := parseDoc(docs[i])
		if err != nil {
			return err
		}
		a, err := pnml.Analyze(n, docs[i].opt)
		if err != nil {
			return fmt.Errorf("%s: %w", docs[i].name, err)
		}
		docs[i].want = a.Fingerprint
	}
	return nil
}

// distWorkers is the resident pool size: one process per CPU beyond
// the coordinator's.
func distWorkers() int { return max(1, runtime.NumCPU()-1) }

// reachCounts are the exact work counters of one analysis.
type reachCounts struct {
	States, Edges int
	StoreHot      int64
	Levels        int
	CoordFires    int64
	WorkerStore   int64
	DocBytes      int
	Fingerprint   string
}

// analyzeDist runs one analysis on the pool and returns the session's
// statistics. Pool.LastSessionStats keeps describing the previous
// session after a call that never reached the pool, so it is read here
// and only here, right after a dist analysis returned.
func analyzeDist(pool *dist.Pool, n *petri.Net, opt pnml.AnalyzeOptions) (*pnml.Analysis, dist.SessionStats, error) {
	opt.Dist = pool
	a, err := pnml.Analyze(n, opt)
	if err != nil {
		return nil, dist.SessionStats{}, err
	}
	return a, pool.LastSessionStats(), nil
}

func countReach(d pnmlDoc, a *pnml.Analysis, st dist.SessionStats) reachCounts {
	c := reachCounts{
		States:      a.Reach.Len(),
		Edges:       a.Edges,
		StoreHot:    a.Reach.Store.Mem().HotBytes,
		Levels:      st.Levels,
		CoordFires:  st.CoordFires,
		DocBytes:    len(d.doc),
		Fingerprint: a.Fingerprint,
	}
	for _, w := range st.Workers {
		c.WorkerStore += w.StoreBytes
	}
	return c
}

// reachWorkload drives reach-pnml: a closed loop with one caller, each
// job parsing a document and analyzing it through the resident pool.
type reachWorkload struct {
	docs []pnmlDoc
	pool *dist.Pool
	// pids are the pool's worker processes, whose CPU counts as the
	// jobs'.
	pids []int
	ref  []*reachCounts
	// wire holds each document's first session wire bytes. They are
	// reported but not an exact counter: repeats of one session have
	// been seen to differ by a byte, so a difference is logged, not
	// failed, and counted in wireDiffs.
	wire      []int64
	wireDiffs int
	// restarts0 is the pool's restart count when the timed phase began.
	restarts0 int64
}

// complete reports whether every document has a reference count.
func (w *reachWorkload) complete() bool {
	for _, c := range w.ref {
		if c == nil {
			return false
		}
	}
	return true
}

func parseDoc(d pnmlDoc) (*petri.Net, error) {
	n, err := pnml.ParseBytes(d.doc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", d.name, err)
	}
	return n, nil
}

func (w *reachWorkload) job(tr *tracer, jobID, i int) (time.Duration, func() error) {
	d := w.docs[i]
	root := tr.begin("job", jobID, -1)
	t0 := time.Now()
	var (
		n   *petri.Net
		a   *pnml.Analysis
		st  dist.SessionStats
		err error
	)
	tr.do("pnml.parse", jobID, root, func() { n, err = pnml.ParseBytes(d.doc) })
	if err == nil {
		tr.do("pnml.analyze", jobID, root, func() { a, st, err = analyzeDist(w.pool, n, d.opt) })
	}
	lat := time.Since(t0)
	tr.end(root)
	return lat, func() error {
		if err != nil {
			return fmt.Errorf("%s: %w", d.name, err)
		}
		if a.Fingerprint != d.want {
			return fmt.Errorf("%s: fingerprint %.12s differs from the serial reference %.12s", d.name, a.Fingerprint, d.want)
		}
		c := countReach(d, a, st)
		if wire := st.BytesSent + st.BytesRecv; w.wire[i] == 0 {
			w.wire[i] = wire
		} else if wire != w.wire[i] {
			w.wireDiffs++
			logf("warning: %s: dist wire bytes %d, first session %d; dist.wire_mb is not an exact counter", d.name, wire, w.wire[i])
		}
		if w.ref[i] == nil {
			w.ref[i] = &c
		} else if c != *w.ref[i] {
			return fmt.Errorf("%s: repeat analysis changed its work counters: %+v, first %+v", d.name, c, *w.ref[i])
		}
		return nil
	}
}

func (w *reachWorkload) counters() map[string]float64 {
	var t reachCounts
	for _, c := range w.ref {
		if c == nil {
			continue
		}
		t.States += c.States
		t.Edges += c.Edges
		t.StoreHot += c.StoreHot
		t.Levels += c.Levels
		t.CoordFires += c.CoordFires
		t.WorkerStore += c.WorkerStore
		t.DocBytes += c.DocBytes
	}
	out := map[string]float64{
		"petri.states":         float64(t.States),
		"petri.edges":          float64(t.Edges),
		"petri.store_hot_mb":   float64(t.StoreHot) / mb,
		"dist.levels":          float64(t.Levels),
		"dist.worker_store_mb": float64(t.WorkerStore) / mb,
		"pnml.doc_kb":          float64(t.DocBytes) / 1024,
	}
	if t.States > 0 {
		out["dist.coord_fires_ratio"] = float64(t.CoordFires) / float64(t.States)
	}
	return out
}

// reachLayerMetrics turns a traced reach run into per-layer metrics.
func (w *reachWorkload) layerMetrics(ls layerStats, m map[string]float64) {
	m["pnml.parse_s"] = ls.meanSeconds("pnml.parse")
	m["pnml.analyze_s"] = ls.meanSeconds("pnml.analyze")
	for k, v := range w.counters() {
		m[k] = v
	}
	var wire int64
	for _, b := range w.wire {
		wire += b
	}
	m["dist.wire_mb"] = float64(wire) / mb
	restarts, _ := w.pool.RecoveryStats()
	m["dist.restarts"] = float64(restarts - w.restarts0)
}

func newReachWorkload(docs []pnmlDoc, pool *dist.Pool) *reachWorkload {
	return &reachWorkload{docs: docs, pool: pool, pids: childPIDs(),
		ref: make([]*reachCounts, len(docs)), wire: make([]int64, len(docs))}
}
