package xfd_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/gen"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xfd"
)

// FuzzUnmarshalFoldState feeds arbitrary bytes to the fold-state
// decoder, the function a coordinator runs on every worker reply. It
// must never panic, must allocate at most a fixed multiple of the
// input length, and every input it accepts must re-marshal to a
// canonical encoding that decodes and re-marshals to itself. The seeds
// are states folded, whole and in fragments, from random documents
// under random three-FD sets; the decoder sees only the FD count of
// its set, so one three-FD set decodes them all.
func FuzzUnmarshalFoldState(f *testing.F) {
	cs, err := xfd.NewCheckerSetFor([]xfd.FD{
		xfd.MustParse("r.c.@k -> r.c"),
		xfd.MustParse("r.c.@k -> r.c.@v"),
		xfd.MustParse("r.c -> r.c.@v"),
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, blob := range seedFoldStates(f, 20) {
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := cs.UnmarshalFoldState(data)
		runtime.ReadMemStats(&after)
		if grown, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+64<<10); grown > limit {
			t.Fatalf("decoding %d bytes allocated %d, over the %d limit", len(data), grown, limit)
		}
		if err != nil {
			return
		}
		canon, err := st.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		back, err := cs.UnmarshalFoldState(canon)
		if err != nil {
			t.Fatalf("canonical re-encoding does not decode: %v", err)
		}
		again, err := back.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, canon) {
			t.Fatalf("canonical encoding is not a fixed point:\n%x\n%x", canon, again)
		}
	})
}

// seedFoldStates marshals the states of n random (DTD, document, σ)
// instances with |σ| = 3, drawn like TestFoldStateDifferential's: the
// whole-document fold and each fragment fold of a three-way split.
func seedFoldStates(tb testing.TB, n int) [][]byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(20021014))
	var out [][]byte
	for len(out) < n {
		d := gen.RandomSimpleDTD(rng)
		doc, err := gen.Document(d, rng, 2, 3)
		if err != nil {
			tb.Fatal(err)
		}
		if tuples.CountTuples(doc, 0) > 2000 {
			continue
		}
		u, err := paths.New(d)
		if err != nil {
			tb.Fatal(err)
		}
		all, err := d.Paths()
		if err != nil {
			tb.Fatal(err)
		}
		sigma := make([]xfd.FD, 3)
		for k := range sigma {
			sigma[k] = xfd.FD{
				LHS: []dtd.Path{all[rng.Intn(len(all))]},
				RHS: []dtd.Path{all[rng.Intn(len(all))]},
			}
		}
		set, err := xfd.NewCheckerSet(u, sigma)
		if err != nil {
			tb.Fatal(err)
		}
		frags := set.SplitFragments(doc, 3)
		if len(frags) > 1 {
			frags = append(frags, xfd.Fragment{Tree: doc})
		}
		for _, fr := range frags {
			st := set.NewFoldState()
			st.FoldFragment(fr)
			blob, err := st.MarshalBinary()
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, blob)
		}
	}
	return out
}
