package dist

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/petri"
)

// FuzzDistFrame feeds arbitrary bytes to every decoder a dist peer runs
// on received frame payloads — hello, init, level commit, restore,
// stats and the trimmed record batch — and requires that none panics.
// The seeds are valid encodings of each message; before fuzzing, each
// must decode back to the value it was encoded from. One more seed is
// an init whose mask word count overflows when multiplied by the word
// size; decodeInit must reject it, not size an allocation from it.
func FuzzDistFrame(f *testing.F) {
	n := ringNet(2, 3)
	init := &initMsg{
		index: 1, workers: 2, shards: petri.NumFrontierShards(2),
		net: n, spec: fullSpec(n), roots: []petri.Marking{n.InitialMarking()},
	}
	restore := &restoreMsg{
		resumeFrom: 3,
		bounds:     []int{3, 7},
		gids:       []petri.MarkID{3, 5},
		vecs:       []petri.Marking{{1, 0, 2}, {0, 1, 0}},
	}
	mem := WorkerMem{States: 9, StoreBytes: 900, BitsBytes: 72, CacheBytes: 16, HeapBytes: 1 << 20, FrozenBytes: 5}
	recs := []petri.VecDelta{
		{Child: 4, Parent: 1, Trans: 2},
		{Child: 6, Parent: 3, Trans: 0, ParentVec: petri.Marking{1, 1, 0}},
	}

	hello := appendHello(nil, protoVersion, 0, 4242)
	if pid, err := checkHello(hello); err != nil || pid != 4242 {
		f.Fatalf("hello seed: pid=%d err=%v", pid, err)
	}
	initBuf := appendInit(nil, init)
	if got, err := decodeInit(initBuf); err != nil {
		f.Fatalf("init seed: %v", err)
	} else if !bytes.Equal(appendInit(nil, got), initBuf) {
		f.Fatal("init seed does not round-trip")
	}
	level := appendLevel(nil, 3, 7)
	if start, end, err := decodeLevel(level); err != nil || start != 3 || end != 7 {
		f.Fatalf("level seed: [%d,%d) err=%v", start, end, err)
	}
	restoreBuf := appendRestoreHeader(nil, restore.resumeFrom, restore.bounds, len(restore.gids))
	for i, g := range restore.gids {
		restoreBuf = appendRestoreState(restoreBuf, g, restore.vecs[i])
	}
	if got, err := decodeRestore(restoreBuf); err != nil || !reflect.DeepEqual(got, restore) {
		f.Fatalf("restore seed: got %+v err=%v", got, err)
	}
	statsBuf := appendStats(nil, mem)
	if got, err := decodeStats(statsBuf); err != nil || got != mem {
		f.Fatalf("stats seed: got %+v err=%v", got, err)
	}
	recsBuf := petri.AppendVecDeltas(nil, recs)
	if got, rest, err := petri.DecodeVecDeltas(nil, recsBuf); err != nil || len(rest) != 0 || !reflect.DeepEqual(got, recs) {
		f.Fatalf("records seed: got %+v (%d bytes left) err=%v", got, len(rest), err)
	}

	overflow := binary.AppendUvarint(nil, protoVersion)
	for _, v := range []uint64{0, 1, 1, 1} { // index, workers, shards, trim
		overflow = binary.AppendUvarint(overflow, v)
	}
	overflow = petri.AppendNet(overflow, n)
	overflow = binary.AppendUvarint(overflow, 1<<61+1) // mask words
	overflow = append(overflow, make([]byte, 16)...)
	if _, err := decodeInit(overflow); err == nil {
		f.Fatal("init with an overflowing mask count decoded")
	}
	for _, seed := range [][]byte{hello, initBuf, level, restoreBuf, statsBuf, recsBuf, overflow} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkHello(data)
		decodeInit(data)
		decodeLevel(data)
		decodeRestore(data)
		decodeStats(data)
		petri.DecodeVecDeltas(nil, data)
	})
}

// TestDecodeInitReplicaMode: the init's replica-mode field is always 1
// (trimmed owned-shard replicas); a 0 there — the retired whole-space
// replica mode — is rejected with an error naming the field.
func TestDecodeInitReplicaMode(t *testing.T) {
	n := ringNet(2, 3)
	init := &initMsg{index: 0, workers: 1, shards: 1, net: n, spec: fullSpec(n), roots: []petri.Marking{n.InitialMarking()}}
	buf := appendInit(nil, init)
	// protoVersion, index, workers and shards are one-byte varints here,
	// so the mode field is byte 4.
	if buf[4] != 1 {
		t.Fatalf("init mode field = %d, want 1", buf[4])
	}
	if _, err := decodeInit(buf); err != nil {
		t.Fatalf("valid init: %v", err)
	}
	buf[4] = 0
	if _, err := decodeInit(buf); err == nil || !strings.Contains(err.Error(), "replica mode 0") {
		t.Fatalf("init with replica mode 0 = %v, want a replica mode error", err)
	}
}

// sliceStream is a chunkStream over a workerLink whose frames come from
// a slice: the reader channel is pre-filled and closed, so a stream that
// wants more chunks than the slice holds fails with errReaderExited. The
// link's conn is one end of a net.Pipe drained by a goroutine (refill
// acks every chunk it pulls); cleanup closes the pipe and waits for the
// drain to finish.
func sliceStream(t *testing.T, chunks [][]byte) *chunkStream {
	cs, ws := net.Pipe()
	drained := make(chan struct{})
	go func() {
		io.Copy(io.Discard, ws)
		close(drained)
	}()
	t.Cleanup(func() {
		cs.Close()
		<-drained
		ws.Close()
	})
	l := &workerLink{c: newConn(cs), ch: make(chan frame, len(chunks))}
	for _, c := range chunks {
		l.ch <- frame{typ: msgChunk, payload: c}
	}
	close(l.ch)
	return &chunkStream{link: l, await: func() (frame, error) {
		f, ok := <-l.ch
		if !ok {
			return frame{}, errReaderExited
		}
		return f, nil
	}}
}

// streamCand is one decoded candidate: the (tag, trans, known, hash)
// tuple nextCand returns.
type streamCand struct {
	tag, trans int
	known      petri.MarkID
	h          uint64
}

// streamGroup is one state's group in a candidate stream.
type streamGroup struct {
	id    int
	cands []streamCand
}

// chunkStreamCase derives a candidate stream from the fuzz input's
// first eight bytes: a ring net and a worker slot, a classification pin,
// an optional zero cap on one place (producing vetoes), and how many
// state groups share a chunk. It returns the chunks a worker replica's
// expandState emits for every state it holds, the (state, candidates)
// sequence the merge must decode from them — computed from the serial
// exploration and the ownership rule, not from the replica — and the
// remaining input bytes.
func chunkStreamCase(t *testing.T, data []byte) ([][]byte, []streamGroup, []byte) {
	var hdr [8]byte
	data = data[copy(hdr[:], data):]
	n := ringNet(1+int(hdr[0]%3), 2+int(hdr[1]%3))
	W := 1 + int(hdr[2]%3)
	S := petri.NumFrontierShards(W)
	index := int(hdr[3]) % W
	want := n.Explore(petri.ExploreOptions{MaxMarkings: 1000})
	if want.Truncated {
		t.Fatalf("%s: exploration truncated at %d states", n.Name, want.Len())
	}
	pin := int(hdr[4]) % (want.Len() + 1)
	spec := fullSpec(n)
	if hdr[5]%2 == 1 {
		spec.Caps[int(hdr[5]/2)%len(spec.Caps)] = 0
	}
	perChunk := 1 + int(hdr[6]%4)

	roots := make([]petri.Marking, want.Len())
	for i := range roots {
		roots[i] = want.MarkingAt(petri.MarkID(i))
	}
	r, err := newReplica(&initMsg{index: index, workers: W, shards: S, net: n, spec: spec, roots: roots}, false)
	if err != nil {
		t.Fatal(err)
	}
	var chunks [][]byte
	var groups []streamGroup
	var buf []byte
	for local := 0; local < r.store.Len(); local++ {
		buf = r.expandState(buf, petri.MarkID(local), petri.MarkID(pin))
		if (local+1)%perChunk == 0 {
			chunks, buf = append(chunks, buf), nil
		}
		g := streamGroup{id: int(r.gids[local])}
		m := want.MarkingAt(petri.MarkID(g.id))
		bits := r.bits[local*r.stride : (local+1)*r.stride]
		petri.ForEachMaskedBit(bits, spec.Mask, func(ei int) {
			for _, tid := range r.part[ei].Trans {
				succ := m.FireInto(nil, n.Transitions[tid])
				if spec.Veto(succ) {
					g.cands = append(g.cands, streamCand{tag: candVeto, trans: tid})
					continue
				}
				h := petri.HashMarking(succ)
				gid, ok := want.Store.LookupHashed(succ, h)
				if !ok {
					t.Fatalf("successor of state %d by %d not in the serial result", g.id, tid)
				}
				if petri.ShardOwner(petri.ShardOfHash(h, S), S, W) == index && int(gid) < pin {
					g.cands = append(g.cands, streamCand{tag: candKnown, trans: tid, known: gid})
				} else {
					g.cands = append(g.cands, streamCand{tag: candNew, trans: tid, h: h})
				}
			}
		})
		groups = append(groups, g)
	}
	if len(buf) > 0 {
		chunks = append(chunks, buf)
	}
	return chunks, groups, data
}

// FuzzChunkStream drives the merge-side chunkStream cursor
// (nextState/nextCand) two ways per input. First, the candidate stream
// a worker replica encodes for a fuzz-chosen net, worker slot, pin and
// cap must decode back to exactly the (state, count, tag, trans, known,
// hash) sequence the serial exploration implies, and then run dry.
// Second, the remaining input bytes, cut into chunks of a fuzz-chosen
// size, are read as a stream of consecutive states; arbitrary bytes
// must fail with an error, never a panic or a hang.
func FuzzChunkStream(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 4})
	f.Add([]byte{2, 2, 2, 1, 30, 3, 3, 16, 0, 2, 4, 1, 9, 6, 0x81, 0x02})
	f.Add([]byte{2, 1, 0, 0, 40, 0, 1, 2, 0, 1, 2, 7, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		chunks, groups, rest := chunkStreamCase(t, data)
		s := sliceStream(t, chunks)
		for _, g := range groups {
			cnt, err := s.nextState(g.id)
			if err != nil {
				t.Fatalf("state %d: %v", g.id, err)
			}
			if cnt != len(g.cands) {
				t.Fatalf("state %d: %d candidates, encoded %d", g.id, cnt, len(g.cands))
			}
			for k, c := range g.cands {
				tag, trans, known, h, err := s.nextCand()
				if err != nil {
					t.Fatalf("state %d candidate %d: %v", g.id, k, err)
				}
				if got := (streamCand{tag, trans, known, h}); got != c {
					t.Fatalf("state %d candidate %d: decoded %+v, encoded %+v", g.id, k, got, c)
				}
			}
		}
		if len(s.buf) != 0 || s.chunks != len(chunks) {
			t.Fatalf("stream left %d bytes, consumed %d of %d chunks", len(s.buf), s.chunks, len(chunks))
		}
		if _, err := s.nextState(len(groups)); err != errReaderExited {
			t.Fatalf("reading past the stream = %v, want errReaderExited", err)
		}

		size := 1
		if len(rest) > 0 {
			size += int(rest[0])
			rest = rest[1:]
		}
		var raw [][]byte
		for len(rest) > 0 {
			k := min(size, len(rest))
			raw, rest = append(raw, rest[:k]), rest[k:]
		}
		s = sliceStream(t, raw)
		for id := 0; ; id++ {
			cnt, err := s.nextState(id)
			if err != nil {
				return
			}
			for k := 0; k < cnt; k++ {
				if _, _, _, _, err := s.nextCand(); err != nil {
					return
				}
			}
		}
	})
}
