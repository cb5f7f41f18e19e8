package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/server"
)

const (
	// serverRate is the open loop's fixed arrival rate, requests per
	// second, chosen once. -calibrate-server measures the server's
	// capacity for this mix over serverConns connections at ~7.6k
	// req/s (README.md records the figures), so the server is busy ~2%
	// of the time and no backlog builds. At 500 req/s the tail, then
	// the 11th-largest raw sample of ~10,000, was a hit whose send was
	// held up behind a cold synthesis, and it moved by 42% between two
	// sets of runs whose median moved by 15%; at 150 req/s a 20-second
	// run holds ~3000 requests and 120 misses, which set the tail.
	serverRate = 150
	// Of every freshBlock consecutive requests, freshPerBlock (at seeded
	// positions) are fresh apps, cold syntheses; the rest are uniform
	// repeats of the warm apps, cache hits. This is a chosen mix, not
	// observed traffic. Fixing the count per block keeps the hit/miss
	// mix of every window the same.
	freshBlock    = 25
	freshPerBlock = 1
	// freshVariants is how many times each fresh app is sent, each time
	// as a variant of its own: the FlowC source with a different
	// trailing comment, so a distinct cache key and another cold
	// synthesis of the same work. latency_tail_ms falls on the misses,
	// and a lone miss that overlaps a hit or a host stall moved it by
	// ~30% between runs of one seed; with variants spread over the run,
	// the tail takes each fresh app's median (see summarize).
	freshVariants = 4
	// serverConns is the generator's connection count: nproc on the
	// 2-vCPU machine the benchmark was defined on.
	serverConns = 2
	// serverWindows is how many windows a timed phase is cut into.
	serverWindows = 5
	// cacheLimit is core's result-cache capacity; the distinct apps of
	// one run stay below it so no timed hit turns into an eviction miss.
	cacheLimit = 1024
)

// arrival is one scheduled request of the open loop.
type arrival struct {
	at  time.Duration // due time from the phase start
	app int           // index into serverWorkload.apps
}

// serverWorkload drives server-mixed: internal/server in-process behind
// a loopback listener, fed by an open loop of seeded Poisson arrivals.
type serverWorkload struct {
	apps   []*corpus.App // the warm apps first, then the fresh ones
	bodies [][]byte      // each app's request, marshalled at set-up
	// input is the app each entry of apps is a variant of: the entry
	// itself for a warm app, the fresh app for its variants.
	input    []int
	warm     int
	arrivals []arrival
	srv      *http.Server
	served   chan struct{} // closed when the server's Serve returns
	url      string
	client   *http.Client
	results  []reqResult
}

// reqResult is what one timed request returned.
type reqResult struct {
	lat, lag, request time.Duration
	synthUS           int64
	status            int
	code              [32]byte
	err               error
}

// newServerWorkload draws warm apps and the arrival schedule of one
// seed and phase length.
func newServerWorkload(seed int64, seconds, rate float64, warm int) (*serverWorkload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &serverWorkload{warm: warm}
	w.add(minimalApps(rng, warm, "warm")...)
	var t time.Duration
	limit := time.Duration(seconds * float64(time.Second))
	var fresh []int
	next := warm
	for k := 0; ; k++ {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= limit && k > 0 {
			break // a schedule holds at least one request
		}
		if k%freshBlock == 0 {
			fresh = rng.Perm(freshBlock)[:freshPerBlock]
		}
		a := arrival{at: t, app: rng.Intn(warm)}
		for _, f := range fresh {
			if f == k%freshBlock {
				a.app = next
				next++
			}
		}
		w.arrivals = append(w.arrivals, a)
	}
	if next >= cacheLimit {
		return nil, fmt.Errorf("server-mixed: %d distinct apps would overflow the %d-entry cache; shorten the run", next, cacheLimit)
	}
	// Miss m sends variant m/n of fresh app m%n: fresh apps in arrival
	// order, so every stretch of the schedule carries the same mix of
	// miss costs, and a fresh app's variants spread over the run.
	misses := next - warm
	n := (misses + freshVariants - 1) / freshVariants
	bases := minimalApps(rng, n, "fresh")
	for m := 0; m < misses; m++ {
		a := *bases[m%n]
		a.Name = fmt.Sprintf("%s.v%d", a.Name, m/n)
		a.FlowC += fmt.Sprintf("\n// variant %d\n", m/n)
		w.add(&a)
		w.input[len(w.input)-1] = warm + m%n
	}
	return w, nil
}

// start resets core's process-global cache, serves the server on a
// loopback port and warms the cache through it.
func (w *serverWorkload) start() error {
	core.ResetCache()
	s := server.New(server.Config{Log: log.New(io.Discard, "", 0)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("server-mixed: listen: %w", err)
	}
	w.srv = &http.Server{Handler: s.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		w.srv.Serve(ln)
	}()
	w.url = "http://" + ln.Addr().String() + "/v1/synthesize"
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: serverConns, MaxIdleConnsPerHost: serverConns}}
	for i := 0; i < w.warm; i++ {
		if r := w.request(i); r.err != nil {
			w.stop()
			return fmt.Errorf("server-mixed: warm-up: %w", r.err)
		}
	}
	return nil
}

// stop shuts the server down and empties the cache.
func (w *serverWorkload) stop() {
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		w.srv.Shutdown(ctx)
		cancel()
		<-w.served
		w.client.CloseIdleConnections()
		w.srv = nil
	}
	core.ResetCache()
}

type synthReply struct {
	Code        map[string]string `json:"code"`
	SynthesisUS int64             `json:"synthesis_us"`
}

// add appends apps and their marshalled requests.
func (w *serverWorkload) add(apps ...*corpus.App) {
	for _, a := range apps {
		body, _ := json.Marshal(map[string]string{"flowc": a.FlowC, "net": a.Spec})
		w.apps = append(w.apps, a)
		w.bodies = append(w.bodies, body)
		w.input = append(w.input, len(w.input))
	}
}

// send posts app i and reads the reply into buf: the timed part of a
// request, with as little of the generator's own work and garbage in
// it as the HTTP client allows.
func (w *serverWorkload) send(i int, buf *bytes.Buffer) reqResult {
	t0 := time.Now()
	resp, err := w.client.Post(w.url, "application/json", bytes.NewReader(w.bodies[i]))
	if err != nil {
		return reqResult{err: err}
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return reqResult{status: resp.StatusCode, request: time.Since(t0), err: err}
}

// decode digests the C of app i's reply raw into r.
func (w *serverWorkload) decode(r *reqResult, i int, raw []byte) {
	if r.err != nil {
		return
	}
	if r.status != http.StatusOK {
		r.err = fmt.Errorf("%s: HTTP %d", w.apps[i].Name, r.status)
		return
	}
	var rep synthReply
	if err := json.Unmarshal(raw, &rep); err != nil {
		r.err = fmt.Errorf("%s: decode reply: %w", w.apps[i].Name, err)
		return
	}
	r.synthUS = rep.SynthesisUS
	r.code = codeDigest(rep.Code)
}

// request sends app i and decodes the reply.
func (w *serverWorkload) request(i int) reqResult {
	var buf bytes.Buffer
	r := w.send(i, &buf)
	w.decode(&r, i, buf.Bytes())
	return r
}

func codeDigest(code map[string]string) [32]byte {
	h := sha256.New()
	for _, name := range sortedKeys(code) {
		fmt.Fprintf(h, "%s\x00%d\x00%s", name, len(code[name]), code[name])
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// run plays the arrival schedule from serverConns sender goroutines.
// A sender takes the next arrival, waits for its due time and sends;
// latency runs from the due time, so a stalled sender charges the wait
// to the requests behind it. The phase is cut into windows of winSec
// seconds of due times; each window's resources and peak RSS are
// sampled at its boundaries.
func (w *serverWorkload) run(tr *tracer, winSec float64) []window {
	w.results = make([]reqResult, len(w.arrivals))
	var next atomic.Int64
	var wg sync.WaitGroup
	win := time.Duration(winSec * float64(time.Second))
	var marks []usage
	var peaks []float64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(sampled)
		resetPeakRSS()
		marks = append(marks, sampleUsage(nil))
		t := time.NewTicker(win)
		defer t.Stop()
		for {
			select {
			case <-t.C:
			case <-stop:
				peaks = append(peaks, peakRSSMB())
				marks = append(marks, sampleUsage(nil))
				return
			}
			peaks = append(peaks, peakRSSMB())
			resetPeakRSS()
			marks = append(marks, sampleUsage(nil))
		}
	}()
	for c := 0; c < serverConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				k := int(next.Add(1) - 1)
				if k >= len(w.arrivals) {
					return
				}
				due := start.Add(w.arrivals[k].at)
				time.Sleep(time.Until(due))
				sent := time.Now()
				root := tr.begin("job", k, -1)
				sp := tr.begin("server.request", k, root)
				r := w.send(w.arrivals[k].app, &buf)
				tr.end(sp)
				tr.end(root)
				r.lag = sent.Sub(due)
				r.lat = time.Since(due)
				// The reply is checked outside its latency.
				w.decode(&r, w.arrivals[k].app, buf.Bytes())
				w.results[k] = r
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-sampled
	windows := make([]window, len(peaks))
	for k := range windows {
		windows[k] = window{timed: marks[k+1].wall.Sub(marks[k].wall), used: marks[k+1].sub(marks[k]), peakRSS: peaks[k]}
	}
	for k, a := range w.arrivals {
		i := min(int(a.at/win), len(windows)-1)
		windows[i].lat = append(windows[i].lat, w.results[k].lat)
		windows[i].in = append(windows[i].in, w.input[a.app])
	}
	// A last window holding only the stragglers of the schedule is too
	// short to stand for the load; fold it into the previous one.
	if n := len(windows); n > 1 && len(windows[n-1].lat) < len(windows[n-2].lat)/2 {
		prev := &windows[n-2]
		prev.lat = append(prev.lat, windows[n-1].lat...)
		prev.in = append(prev.in, windows[n-1].in...)
		prev.timed += windows[n-1].timed
		prev.used.cpu += windows[n-1].used.cpu
		prev.used.alloc += windows[n-1].used.alloc
		prev.peakRSS = max(prev.peakRSS, windows[n-1].peakRSS)
		windows = windows[:n-1]
	}
	return windows
}

// check compares every reply with an in-process synthesis of the same
// app and returns the failures (transport errors, refusals, differing
// C) and the generated C bytes over the distinct apps, a fresh app's
// variants counted once.
func (w *serverWorkload) check() (failed int, codeBytes int, err error) {
	want := make(map[int][32]byte)
	for i := range w.apps {
		r, err := core.Synthesize(w.apps[i].FlowC, w.apps[i].Spec, coldOptions())
		if err != nil {
			return 0, 0, fmt.Errorf("server-mixed: reference for %s: %w", w.apps[i].Name, err)
		}
		want[i] = codeDigest(r.Code)
		if w.input[i] != i {
			continue // a later variant: its C is counted once
		}
		for _, c := range r.Code {
			codeBytes += len(c)
		}
	}
	for k := range w.results {
		r := &w.results[k]
		if r.err == nil && r.code != want[w.arrivals[k].app] {
			r.err = fmt.Errorf("%s: reply C differs from in-process synthesis", w.apps[w.arrivals[k].app].Name)
		}
		if r.err != nil {
			failed++
			logf("check failed: %v", r.err)
		}
	}
	return failed, codeBytes, nil
}

// layerMetrics fills the server layer's per-request metrics.
func (w *serverWorkload) layerMetrics(m map[string]float64, hitRatio float64) {
	var req, synth, lag time.Duration
	ok := 0
	for _, r := range w.results {
		lag += r.lag
		if r.err == nil {
			ok++
			req += r.request
			synth += time.Duration(r.synthUS) * time.Microsecond
		}
	}
	n := float64(len(w.results))
	if ok > 0 {
		m["server.request_s"] = req.Seconds() / float64(ok)
		m["server.synth_s"] = synth.Seconds() / float64(ok)
		m["server.overhead_s"] = (req - synth).Seconds() / float64(ok)
	}
	m["server.gen_lag_ms"] = float64(lag) / float64(time.Millisecond) / n
	m["core.cache_hit_ratio"] = hitRatio
}

// hitRatio is the cache hit share between two core.Stats snapshots.
func hitRatio(a, b core.CacheStats) float64 {
	hits, misses := b.Hits-a.Hits, b.Misses-a.Misses
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// calibrateServer measures what serverRate is set from: the server's
// saturation throughput over serverConns connections on cache hits
// alone and on cold misses alone, each a closed loop of seconds, and
// the share of time the server is busy at serverRate with the
// benchmark's mix.
func calibrateServer(out io.Writer, seconds float64) error {
	w, err := newServerWorkload(1, 0, serverRate, fullSizes.serverWarm)
	if err != nil {
		return err
	}
	if err := w.start(); err != nil {
		return err
	}
	defer w.stop()
	rng := rand.New(rand.NewSource(2))
	saturate := func(next func() int) (float64, error) {
		var mu sync.Mutex
		var done int
		var failure error
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		t0 := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < serverConns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					mu.Lock()
					i := next()
					mu.Unlock()
					r := w.request(i)
					mu.Lock()
					done++
					if r.err != nil && failure == nil {
						failure = r.err
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		return float64(done) / time.Since(t0).Seconds(), failure
	}
	hits, err := saturate(func() int { return rng.Intn(w.warm) })
	if err != nil {
		return err
	}
	cfg := minimalConfig()
	misses, err := saturate(func() int {
		w.add(corpus.Generate(rand.New(rand.NewSource(rng.Int63())), fmt.Sprintf("cal%05d", len(w.apps)), cfg))
		return len(w.apps) - 1
	})
	if err != nil {
		return err
	}
	missShare := float64(freshPerBlock) / freshBlock
	capacity := 1 / ((1-missShare)/hits + missShare/misses)
	fmt.Fprintf(out, "connections %d, GOMAXPROCS %d, nproc %d\n", serverConns, runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Fprintf(out, "hit-only saturation   %8.0f req/s\n", hits)
	fmt.Fprintf(out, "miss-only saturation  %8.0f req/s\n", misses)
	fmt.Fprintf(out, "capacity at %d/%d misses %6.0f req/s; utilisation at %d req/s %.2f\n",
		freshPerBlock, freshBlock, capacity, serverRate, serverRate/capacity)
	return nil
}
