package dist_test

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/petri"
)

// The distributed memory gate: trimmed replicas exist to make
// per-worker memory scale ~1/N with the pool size, so CI asserts the
// ratio, not just the mechanism. All figures are exact live byte
// counts (the store's hot bytes plus the enabled-set arena) — pure
// functions of the interned marking sequence, identical on every
// machine and Go toolchain that runs the same exploration — which is
// what allows a strict numeric gate instead of a noisy RSS heuristic.

// gateRatio is the CI bound: at 2 workers, each trimmed worker must
// hold at most 0.75x the replica bytes of a whole-space replica. The
// ideal split is ~0.5x; the slack covers hash imbalance and the
// fixed per-store probe-table floor.
const gateRatio = 0.75

// replicaBytes is the per-worker figure the gate compares: the marking
// store and the enabled-set arena — the two structures that grow with
// held states. The boundary-parent cache is bounded by construction
// and reported separately.
func replicaBytes(m dist.WorkerMem) int64 { return m.StoreBytes + m.BitsBytes }

// exploreWithPool runs one exploration over freshly spawned worker
// processes and returns the session stats.
func exploreWithPool(t *testing.T, n *petri.Net, procs int, opt petri.ExploreOptions) (*petri.ReachResult, dist.SessionStats) {
	t.Helper()
	pool, err := dist.SpawnLocal(procs)
	if err != nil {
		t.Fatalf("spawn %d workers: %v", procs, err)
	}
	defer pool.Close()
	r, err := n.ExploreDist(pool, opt)
	if err != nil {
		t.Fatalf("ExploreDist(%d procs): %v", procs, err)
	}
	return r, pool.LastSessionStats()
}

// TestDistTrimmedMemoryGate is the CI `dist-memory` step: on a
// product-space net big enough to dwarf fixed overheads (4^6 = 4096
// states), per-worker replica bytes must be <= gateRatio x the bytes a
// whole-space replica holds at 2 workers, and the workers' stores must
// partition the state space instead of duplicating it. The baseline is
// computed, not measured: a replica holding every state keeps the
// serial store's hot bytes plus one enabled-set row (stride words) per
// state — the figure live whole-space worker replicas reported exactly
// (884736B on this net) while that mode existed.
func TestDistTrimmedMemoryGate(t *testing.T) {
	net := productNet(6, 4)
	opt := petri.ExploreOptions{MaxMarkings: 5000}

	want := net.Explore(opt)
	got, st := exploreWithPool(t, net, 2, opt)
	assertSameReach(t, "dist vs serial", want, got)
	stride := petri.NewEnabledTracker(net, net.ECSPartition()).Stride()
	fullBytes := want.Store.Mem().HotBytes + int64(want.Len()*stride*8)

	var trimMax int64
	held := 0
	for w, wm := range st.Workers {
		tb := replicaBytes(wm)
		t.Logf("worker %d: %dB (%d states, %dB boundary cache)", w, tb, wm.States, wm.CacheBytes)
		if tb > trimMax {
			trimMax = tb
		}
		held += wm.States
	}
	if held != want.Len() {
		t.Errorf("trimmed workers hold %d states in total, space has %d", held, want.Len())
	}
	if limit := int64(float64(fullBytes) * gateRatio); trimMax > limit {
		t.Errorf("trimmed per-worker replica %dB exceeds %.2fx whole-space replica baseline (%dB of %dB)",
			trimMax, gateRatio, limit, fullBytes)
	}
	t.Logf("gate: trimmed max %dB vs whole-space replica %dB (%.2fx, bound %.2fx) over %d states",
		trimMax, fullBytes, float64(trimMax)/float64(fullBytes), gateRatio, want.Len())
}

// TestDistTrimmedMemoryScaling documents the ~1/N curve the tentpole
// claims: per-worker replica bytes at 1, 2 and 4 trimmed workers
// shrink with the pool, each step keeping the byte-identical result.
func TestDistTrimmedMemoryScaling(t *testing.T) {
	net := productNet(6, 4)
	opt := petri.ExploreOptions{MaxMarkings: 5000}
	want := net.Explore(opt)
	prevMax := int64(0)
	for _, procs := range []int{1, 2, 4} {
		got, st := exploreWithPool(t, net, procs, opt)
		assertSameReach(t, fmt.Sprintf("procs=%d", procs), want, got)
		var max int64
		for _, wm := range st.Workers {
			if b := replicaBytes(wm); b > max {
				max = b
			}
		}
		t.Logf("procs=%d: max per-worker replica %dB", procs, max)
		// Doubling the pool must shrink the biggest replica by a real
		// margin; 0.75 is loose against hash imbalance on 4096 states.
		if prevMax > 0 && float64(max) > 0.75*float64(prevMax) {
			t.Errorf("max replica %dB at %d workers is not <= 0.75x the previous pool's %dB", max, procs, prevMax)
		}
		prevMax = max
	}
}
