package petri_test

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/petri"
	"repro/internal/pnml"
)

// FuzzWireDecode feeds arbitrary bytes to the petri wire decoders —
// DecodeNet, DecodeMarking and DecodeVecDeltas — and requires that
// none panics and that every value one of them accepts re-encodes to
// exactly the prefix it consumed: the codecs are bijective on what the
// encoders produce, so a worker can never decode a payload into a
// value the coordinator would have encoded differently. The seeds are
// the linked system nets of the example apps, one PNML suite net, and
// encoded markings and record batches over them.
func FuzzWireDecode(f *testing.F) {
	var nets []*petri.Net
	for _, app := range []struct{ name, flowc, spec string }{
		{"divisors", apps.Divisors, apps.DivisorsSpec},
		{"pixelpipe", apps.PixelPipe, apps.PixelPipeSpec},
		{"multirate", apps.MultiRate, apps.MultiRateSpec},
		{"falsepath_fixed", apps.FalsePathFixed, apps.FalsePathFixedSpec},
		{"pfc", apps.PFC, apps.PFCSpec},
	} {
		n, err := core.SystemNet(app.flowc, app.spec)
		if err != nil {
			f.Fatalf("link %s: %v", app.name, err)
		}
		nets = append(nets, n)
	}
	doc, err := os.ReadFile("../pnml/testdata/suite/token-ring-5.pnml")
	if err != nil {
		f.Fatal(err)
	}
	ring, err := pnml.ParseBytes(doc)
	if err != nil {
		f.Fatalf("parse token-ring-5: %v", err)
	}
	nets = append(nets, ring)

	for _, n := range nets {
		m0 := n.InitialMarking()
		f.Add(petri.AppendNet(nil, n))
		f.Add(petri.AppendMarking(nil, m0))
		f.Add(petri.AppendVecDeltas(nil, []petri.VecDelta{
			{Child: 1, Parent: 0, Trans: 0},
			{Child: 2, Parent: 0, Trans: int32(len(n.Transitions) - 1), ParentVec: m0},
			{Child: 1 << 20, Parent: 1 << 19, Trans: 3},
		}))
	}
	f.Add(petri.AppendVecDeltas(nil, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		if n, rest, err := petri.DecodeNet(data); err == nil {
			if got := petri.AppendNet(nil, n); !bytes.Equal(got, data[:len(data)-len(rest)]) {
				t.Fatalf("net re-encodes to %x, consumed %x", got, data[:len(data)-len(rest)])
			}
		}
		if m, rest, err := petri.DecodeMarking(data); err == nil {
			if got := petri.AppendMarking(nil, m); !bytes.Equal(got, data[:len(data)-len(rest)]) {
				t.Fatalf("marking re-encodes to %x, consumed %x", got, data[:len(data)-len(rest)])
			}
		}
		if ds, rest, err := petri.DecodeVecDeltas(nil, data); err == nil {
			if got := petri.AppendVecDeltas(nil, ds); !bytes.Equal(got, data[:len(data)-len(rest)]) {
				t.Fatalf("record batch re-encodes to %x, consumed %x", got, data[:len(data)-len(rest)])
			}
		}
	})
}
