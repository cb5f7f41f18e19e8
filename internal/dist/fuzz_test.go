package dist

import (
	"bytes"
	"encoding/binary"
	"reflect"
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
		index: 1, workers: 2, shards: petri.NumFrontierShards(2), trim: true,
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

	hello := appendHello(nil, protoVersion, helloFullReplicas, 4242)
	if flags, pid, err := checkHello(hello); err != nil || flags != helloFullReplicas || pid != 4242 {
		f.Fatalf("hello seed: flags=%d pid=%d err=%v", flags, pid, err)
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
