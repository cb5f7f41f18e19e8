package main

import (
	"bufio"
	_ "embed"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/sched"
)

// The corpus-search deck is a stratified seeded draw from a fixed pool
// of corpus.DefaultConfig() apps. Search effort across that pool is
// heavy-tailed (the median app creates ~1.3k states, the 99th percentile
// ~250k, and one app in a few hundred over a million), so a plain draw
// of a few dozen apps would give every seed a different workload. The
// pool's apps are ranked by their exact search-state counts, recorded in
// corpus_pool.txt by -calibrate-pool; the deck takes one app from each
// of sizes.searchSlots equal rank strata, the seed choosing it among the
// slotWindow*2+1 apps nearest the stratum's centre. Every seed thus gets
// different apps with the same shape of effort, a heavy tail included:
// the deck's largest app searches ~100x the states of its median one.
// The strata that set the median and the tail take a fixed app (see
// fixedTop and fixedMidLo); the seed picks the rest.
const (
	corpusPoolSeed = 1
	corpusPoolSize = 1200
	// poolMaxStates excludes apps whose search exceeds this many
	// states: one such app alone runs longer than a whole run.
	poolMaxStates = 400000
	// poolKeep is the share of the ranked pool the strata cover. The
	// top 3% (over ~130k states, up to seconds per job) would put a few
	// jobs worth a third of a run into every deck, and the run-to-run
	// job mix with them.
	poolKeep   = 0.97
	slotWindow = 3
	// fixedTop is how many of the heaviest strata take their centre app
	// whatever the seed. Those few apps set the tail latency, the peak
	// RSS and most of a pass's time, and neighbours in rank differ by
	// up to 1.7x in store size (marking width 61 to 94 places on the
	// heaviest stratum), so letting the seed pick them moved those
	// figures by ~25% between seeds. The seed varies the rest of the
	// mix and the order.
	fixedTop = 5
	// Strata fixedMidLo up to fixedMidHi also take their centre app.
	// Their apps (~430 to ~2100 states) hold the deck's median latency,
	// and there neighbours in rank differ by up to 4x in time (1.5 to
	// 7 ms at ~1000 states on the defining machine), so letting the
	// seed pick them moved latency_p50_ms by ~20% between seeds while
	// CPU per job moved 4%.
	fixedMidLo, fixedMidHi = 10, 23
)

//go:embed corpus_pool.txt
var corpusPoolTable string

type poolEntry struct{ index, states int }

// parsePool reads "index states" lines.
func parsePool(table string) ([]poolEntry, error) {
	var out []poolEntry
	sc := bufio.NewScanner(strings.NewReader(table))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("corpus pool: bad line %q", line)
		}
		idx, err1 := strconv.Atoi(f[0])
		st, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil || idx < 0 || idx >= corpusPoolSize {
			return nil, fmt.Errorf("corpus pool: bad line %q", line)
		}
		out = append(out, poolEntry{idx, st})
	}
	return out, sc.Err()
}

// searchDeck draws the corpus-search corpus apps for one seed, one per
// stratum.
func searchDeck(seed int64, strata int) ([]*corpus.App, error) {
	pool, err := parsePool(corpusPoolTable)
	if err != nil {
		return nil, err
	}
	if len(pool) < strata*(2*slotWindow+1) {
		return nil, fmt.Errorf("corpus pool has %d apps, too few for %d strata", len(pool), strata)
	}
	sort.SliceStable(pool, func(i, j int) bool { return pool[i].states < pool[j].states })
	pool = pool[:int(poolKeep*float64(len(pool)))]
	all := corpus.GenerateCorpus(corpusPoolSeed, corpusPoolSize, corpus.DefaultConfig())
	rng := rand.New(rand.NewSource(seed))
	out := make([]*corpus.App, 0, strata)
	for s := 0; s < strata; s++ {
		centre := int((float64(s) + 0.5) / float64(strata) * float64(len(pool)))
		j := centre - slotWindow + rng.Intn(2*slotWindow+1)
		if s >= strata-fixedTop || s >= fixedMidLo && s < fixedMidHi {
			j = centre
		}
		j = max(0, min(len(pool)-1, j))
		out = append(out, all[pool[j].index])
	}
	return out, nil
}

// minimalConfig shapes the corpus-front apps: one pipeline of one stage
// with one width-1 operation per edge, so the front half of the flow
// and per-call costs weigh as much as the search.
func minimalConfig() corpus.Config {
	cfg := corpus.DefaultConfig()
	cfg.MinPipelines, cfg.MaxPipelines = 1, 1
	cfg.MinStages, cfg.MaxStages = 1, 1
	cfg.MaxOps, cfg.MaxWidth = 1, 1
	return cfg
}

// frontDeck draws n corpus-front apps for one seed.
func frontDeck(seed int64, n int) []*corpus.App {
	return minimalApps(rand.New(rand.NewSource(seed)), n, "app")
}

// minimalClass sorts a minimal app by its search effort, which takes
// one of three values: a select pipeline (424 states), a stage with a
// choice tap (48) or a plain stage (8).
func minimalClass(a *corpus.App) int {
	switch {
	case strings.Contains(a.FlowC, "SELECT"):
		return 2
	case strings.Contains(a.Spec, ".tap ->"):
		return 1
	}
	return 0
}

// minimalShares are the classes' shares among minimalConfig apps.
func minimalShares() [3]float64 {
	cfg := minimalConfig()
	choice := (1 - cfg.SelectDensity) * cfg.ChoiceDensity
	return [3]float64{1 - cfg.SelectDensity - choice, choice, cfg.SelectDensity}
}

// minimalApps draws n minimal apps from rng with the class mix of
// minimalShares in every prefix: app k takes the class furthest below
// its share of k+1 apps, and is the next generated app of that class.
// A plain draw lets the select share, which carries ~85% of the search
// states, vary by binomial chance; over 1000 apps that moved a seed's
// total states and allocation per job by up to ±9%. The exact mix gives
// every seed, and every stretch of one seed's sequence, the same effort.
func minimalApps(rng *rand.Rand, n int, prefix string) []*corpus.App {
	cfg := minimalConfig()
	shares := minimalShares()
	var have [3]int
	out := make([]*corpus.App, 0, n)
	for k := 0; k < n; k++ {
		want, gap := 0, math.Inf(-1)
		for c, sh := range shares {
			if g := sh*float64(k+1) - float64(have[c]); g > gap {
				want, gap = c, g
			}
		}
		for {
			a := corpus.Generate(rand.New(rand.NewSource(rng.Int63())), fmt.Sprintf("%s%04d", prefix, k), cfg)
			if minimalClass(a) == want {
				out = append(out, a)
				have[want]++
				break
			}
		}
	}
	return out
}

// calibratePool synthesizes every app of the fixed pool once and writes
// the "index states" table searchDeck stratifies by. Apps over
// poolMaxStates are left out.
func calibratePool(w io.Writer) error {
	fmt.Fprintf(w, "# corpus.GenerateCorpus(%d, %d, DefaultConfig()): app index, search states (NodesCreated summed over schedules)\n",
		corpusPoolSeed, corpusPoolSize)
	opt := &core.Options{DisableCache: true, Sched: &sched.Options{MaxNodes: poolMaxStates}}
	for i, app := range corpus.GenerateCorpus(corpusPoolSeed, corpusPoolSize, corpus.DefaultConfig()) {
		r, err := core.Synthesize(app.FlowC, app.Spec, opt)
		if errors.Is(err, sched.ErrBudget) {
			continue
		}
		if err != nil {
			return fmt.Errorf("calibrate %s: %w", app.Name, err)
		}
		states := 0
		for _, s := range r.Schedules {
			states += s.Stats.NodesCreated
		}
		fmt.Fprintf(w, "%d %d\n", i, states)
	}
	return nil
}
