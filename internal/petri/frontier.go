package petri

import "sync"

// Level-synchronous parallel frontier. Both bounded reachability
// (Net.Explore) and the scheduler's marking-graph engine are BFS loops
// whose serial form interleaves three jobs per edge: fire the
// transition, deduplicate the successor marking, and record the edge
// under a deterministic state numbering. RunFrontier splits one BFS
// level into three phases so the first two scale with cores while the
// numbering stays byte-identical to the serial loop:
//
//	A (parallel over frontier chunks): fire + prune + hash each
//	  successor into per-worker candidate buffers, bucketed by the
//	  shard its hash routes to;
//	B (parallel over shards): deduplicate each shard's candidates by
//	  interning into a ShardedStore — each shard is touched by exactly
//	  one goroutine, so no locks are taken;
//	C (sequential, cheap): walk the candidates in (parent, emit) order
//	  — which IS the serial discovery order, because chunks are
//	  contiguous — and assign dense global MarkIDs on first use of a
//	  shard ref. Per edge this is a few array reads; the O(|marking|)
//	  hashing and probing already happened in A and B.
//
// Because phase C numbers states in first-discovery order regardless of
// how phases A and B were chunked, the resulting MarkIDs, edges and
// everything derived from them are identical for every worker count,
// including the plain serial loop.

// MergeHooks are the sequential hooks of a frontier exploration: they
// run in the deterministic phase-C merge order regardless of how the
// expansion was parallelized (goroutines in RunFrontier, or worker
// processes behind a FrontierRunner), which is what makes state
// numbering byte-identical across every execution strategy.
type MergeHooks struct {
	// BeginState is called for every frontier state in MarkID order,
	// before any of its Edge/Reject calls. May be nil.
	BeginState func(id MarkID)
	// Admit is consulted before a newly discovered marking is assigned
	// a global MarkID; returning false rejects it (surfacing as a
	// Reject with budget=true). May be nil (admit everything).
	Admit func() bool
	// Edge is called for each recorded edge, in the serial discovery
	// order. isNew is true when child was interned by this call, in
	// which case child == store.Len()-1.
	Edge func(parent MarkID, trans int32, child MarkID, isNew bool)
	// Reject is called for emitted-nil successors (budget=false) and
	// Admit-refused ones (budget=true). Returning false aborts the
	// whole exploration; RunFrontier then returns false.
	Reject func(parent MarkID, trans int32, budget bool) bool
	// LevelClosed is called after each level commits — every state
	// below end has had all its edges recorded and will never be
	// expanded again — and runs sequentially, between levels. The
	// frozen-tier explorers use it to FreezeThrough(end); the final
	// call has end == store.Len(). May be nil.
	LevelClosed func(end int)
}

// FrontierHooks supplies the exploration-specific behaviour of a
// RunFrontier run. Expand is called concurrently; the embedded
// MergeHooks are called sequentially from phase C in deterministic
// order.
type FrontierHooks struct {
	// Expand generates the successors of one frontier state. It is
	// called once per state, concurrently across states, with a worker
	// index for scratch-buffer affinity. emit must be called once per
	// outgoing edge attempt, in a deterministic per-state order; the
	// child marking is copied during the call, so a reused scratch
	// buffer may be passed. Emit a nil child for a successor vetoed by
	// the caller (e.g. beyond a token cap): it surfaces as a Reject
	// with budget=false.
	Expand func(worker int, id MarkID, m Marking, emit func(trans int32, child Marking))
	MergeHooks
}

// ExpandSpec is a self-contained, serializable description of how to
// expand one frontier state: which ECSs of the net's partition may
// fire, and the per-place token caps that veto successors. It captures
// everything the in-process explorers' Expand closures know, so a
// worker process holding only the net and the spec reproduces the
// exact emit sequence (ECSs in partition order, members in ascending
// transition order, out-of-cap successors vetoed).
type ExpandSpec struct {
	// Mask is the fireable-ECS bitset over the net's ECSPartition:
	// enabled ECSs outside the mask are not fired (source exclusion,
	// single-source filtering).
	Mask []uint64
	// Caps holds the per-place token cap; a successor marking any
	// place beyond its cap is vetoed. A negative cap means unbounded.
	Caps []int
}

// Veto reports whether the marking exceeds the spec's place caps.
func (s *ExpandSpec) Veto(m Marking) bool {
	for i, v := range m {
		if c := s.Caps[i]; c >= 0 && v > c {
			return true
		}
	}
	return false
}

// FrontierRunner abstracts who performs the phase-A expansion of a
// level-synchronous frontier exploration. The in-process RunFrontier
// fans expansion out over goroutines; a distributed runner (package
// internal/dist) ships the net and spec to worker processes owning
// hash ranges of the marking space — each holding only its owned
// shards, fed by VecDelta batches — and feeds their candidate streams
// through the same sequential merge, pipelined so workers expand one
// level ahead of the merge and new candidates resolve by shipped
// marking hash (LookupHash) instead of a coordinator re-fire.
// Implementations must invoke the
// MergeHooks in exactly the serial discovery order (states ascending,
// emit order within a state), so results are byte-identical to the
// serial loop. The returned bool is false when a Reject hook aborted
// the run; a non-nil error reports an infrastructure failure (a worker
// died, the protocol broke) rather than an exploration outcome.
type FrontierRunner interface {
	RunFrontier(n *Net, store *MarkingStore, spec ExpandSpec, hooks MergeHooks) (bool, error)
}

// frontierCand is one edge attempt buffered between phases.
type frontierCand struct {
	parent uint32
	trans  int32
	shard  int32 // -1: vetoed by Expand (nil child)
	local  MarkID
	off    int32 // child vector offset in the worker's arena
	hash   uint64
}

type frontierWorker struct {
	cands   []frontierCand
	vecs    []int
	byShard [][]int32 // shard -> indexes into cands
}

// RunFrontier explores breadth-first from the states already interned
// in store (the first frontier is [0, store.Len())), appending every
// admitted successor to store under the deterministic numbering
// described above. It returns false if a Reject hook aborted the run.
// workers <= 1 still runs the phased pipeline on the calling goroutine,
// with identical results.
func RunFrontier(store *MarkingStore, workers int, hooks FrontierHooks) bool {
	if workers < 1 {
		workers = 1
	}
	nshards := NumFrontierShards(workers)
	places := store.Places()
	sh := NewShardedStore(places, nshards)
	nshards = sh.NumShards()
	// refGlobal[shard][local] is the global MarkID assigned to a shard
	// entry, or NoMark while it has none (not yet reached phase C, or
	// refused by Admit).
	refGlobal := make([][]MarkID, nshards)
	ws := make([]*frontierWorker, workers)
	for i := range ws {
		ws[i] = &frontierWorker{byShard: make([][]int32, nshards)}
	}
	// Seed the dedup store with the states already interned globally
	// (the roots), so a cycle back to one is recognized rather than
	// assigned a second MarkID.
	for id := 0; id < store.Len(); id++ {
		m := store.At(MarkID(id))
		h := HashMarking(m)
		sd := sh.ShardOf(h)
		local, _ := sh.InternShard(sd, m, h)
		for len(refGlobal[sd]) <= int(local) {
			refGlobal[sd] = append(refGlobal[sd], NoMark)
		}
		refGlobal[sd][local] = MarkID(id)
	}

	for levelStart := 0; levelStart < store.Len(); {
		levelEnd := store.Len()
		n := levelEnd - levelStart
		act := workers
		if act > n {
			act = n
		}

		// Phase A: expand frontier chunks in parallel.
		var wg sync.WaitGroup
		for w := 0; w < act; w++ {
			fw := ws[w]
			fw.cands = fw.cands[:0]
			fw.vecs = fw.vecs[:0]
			for s := range fw.byShard {
				fw.byShard[s] = fw.byShard[s][:0]
			}
			lo := levelStart + w*n/act
			hi := levelStart + (w+1)*n/act
			wg.Add(1)
			go func(w, lo, hi int, fw *frontierWorker) {
				defer wg.Done()
				parent := uint32(0)
				emit := func(trans int32, child Marking) {
					if child == nil {
						fw.cands = append(fw.cands, frontierCand{parent: parent, trans: trans, shard: -1})
						return
					}
					h := HashMarking(child)
					sd := sh.ShardOf(h)
					fw.byShard[sd] = append(fw.byShard[sd], int32(len(fw.cands)))
					fw.cands = append(fw.cands, frontierCand{
						parent: parent, trans: trans, shard: int32(sd),
						off: int32(len(fw.vecs)), hash: h,
					})
					fw.vecs = append(fw.vecs, child...)
				}
				for id := lo; id < hi; id++ {
					parent = uint32(id)
					hooks.Expand(w, MarkID(id), store.At(MarkID(id)), emit)
				}
			}(w, lo, hi, fw)
		}
		wg.Wait()

		// Phase B: deduplicate per shard in parallel; shard s is owned
		// by goroutine s%act, so InternShard needs no lock. Chunks are
		// walked in worker order so shard-local insertion order is
		// deterministic for a fixed worker count (the global numbering
		// below is deterministic for ANY worker count).
		for w := 0; w < act; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for s := uint32(w); int(s) < nshards; s += uint32(act) {
					for _, fw := range ws[:act] {
						for _, ci := range fw.byShard[s] {
							c := &fw.cands[ci]
							v := Marking(fw.vecs[c.off : int(c.off)+places])
							c.local, _ = sh.InternShard(s, v, c.hash)
						}
					}
					if grown := sh.ShardLen(s); grown > len(refGlobal[s]) {
						for len(refGlobal[s]) < grown {
							refGlobal[s] = append(refGlobal[s], NoMark)
						}
					}
				}
			}(w)
		}
		wg.Wait()

		// Phase C: sequential merge in serial discovery order.
		next := MarkID(levelStart)
		begin := func(through MarkID) {
			if hooks.BeginState == nil {
				next = through + 1
				return
			}
			for ; next <= through; next++ {
				hooks.BeginState(next)
			}
		}
		for _, fw := range ws[:act] {
			for i := range fw.cands {
				c := &fw.cands[i]
				begin(MarkID(c.parent))
				if c.shard < 0 {
					if !hooks.Reject(MarkID(c.parent), c.trans, false) {
						return false
					}
					continue
				}
				g := refGlobal[c.shard][c.local]
				if g == NoMark {
					if hooks.Admit != nil && !hooks.Admit() {
						if !hooks.Reject(MarkID(c.parent), c.trans, true) {
							return false
						}
						continue
					}
					g, _ = store.InternHashed(fw.vecs[c.off:int(c.off)+places], c.hash)
					refGlobal[c.shard][c.local] = g
					hooks.Edge(MarkID(c.parent), c.trans, g, true)
					continue
				}
				hooks.Edge(MarkID(c.parent), c.trans, g, false)
			}
		}
		begin(MarkID(levelEnd - 1))
		if hooks.LevelClosed != nil {
			hooks.LevelClosed(levelEnd)
		}
		levelStart = levelEnd
	}
	return true
}
