package xfd

// White-box tests of the verdict fold's split and wire contracts: a
// cluster that does not choose in the split sibling group is folded by
// one fragment only, and the fold-state decoder allocates no more than
// the bytes it was handed can justify.

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"xmlnorm/internal/xmltree"
)

// TestNonSplitClusterFoldsOnce uses a spec with two clusters, one over
// r.c and one over r.o. Documents carry more c than o children, so
// SplitFragments splits the c group, and the o cluster — whose stream
// is the whole document's in every fragment — must be folded by the
// fragment starting at ordinal 0 alone. The sharded check, which folds
// those fragments, must still report exactly what Violations reports.
func TestNonSplitClusterFoldsOnce(t *testing.T) {
	sigma := []FD{
		MustParse("r.c.@k -> r.c"),
		MustParse("r.o.@k -> r.o.@v"),
	}
	cs, err := NewCheckerSetFor(sigma)
	if err != nil {
		t.Fatal(err)
	}
	if cs.NumClusters() != 2 {
		t.Fatalf("spec compiled to %d clusters, want 2", cs.NumClusters())
	}
	doc := func(cKeys string, os ...string) *xmltree.Tree {
		var b strings.Builder
		b.WriteString("<r>")
		for _, k := range strings.Split(cKeys, "") {
			fmt.Fprintf(&b, "<c k=%q/>", k)
		}
		for _, o := range os {
			kv := strings.Split(o, "=")
			fmt.Fprintf(&b, "<o k=%q v=%q/>", kv[0], kv[1])
		}
		b.WriteString("</r>")
		d, err := xmltree.ParseString(b.String())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	docs := map[string]*xmltree.Tree{
		"satisfied":    doc("abcdefgh", "1=x", "2=y", "3=z"),
		"o violated":   doc("abcdefgh", "1=x", "1=y", "3=z"),
		"c violated":   doc("abcdefga", "1=x", "2=y", "3=z"),
		"both violate": doc("abcdefga", "1=x", "2=y", "2=z"),
	}
	for name, d := range docs {
		want := CanonicalReport(cs.Violations(d))
		for _, workers := range []int{1, 2, 4, 16} {
			if got := CanonicalReport(cs.ViolationsSharded(d, workers)); got != want {
				t.Fatalf("%s, %d workers: sharded report\n%s\nwant\n%s", name, workers, got, want)
			}
			frags := cs.SplitFragments(d, workers)
			for _, f := range frags {
				if workers > 1 && f.Label != "c" {
					t.Fatalf("%s, %d workers: split label %q, want \"c\"", name, workers, f.Label)
				}
				st := cs.NewFoldState()
				st.FoldFragment(f)
				o := &st.fds[1]
				switch {
				case f.Start > 0 && (o.violated || len(o.groups) != 0):
					t.Fatalf("%s, %d workers: fragment at %d folded the non-split cluster (%d groups, violated %v)",
						name, workers, f.Start, len(o.groups), o.violated)
				case f.Start == 0 && !o.violated && len(o.groups) == 0:
					t.Fatalf("%s, %d workers: fragment 0 did not fold the non-split cluster", name, workers)
				}
			}
		}
	}
}

// TestUnmarshalFoldStateBounded feeds the decoder tiny blobs that claim
// huge group counts and key lengths. Each must be rejected without
// allocating anywhere near what the claim would take: the decoder
// checks every count and length against the bytes that remain.
func TestUnmarshalFoldStateBounded(t *testing.T) {
	cs, err := NewCheckerSetFor([]FD{MustParse("r.c.@k -> r.c")})
	if err != nil {
		t.Fatal(err)
	}
	// Magic, one FD, not violated, then the claimed counts.
	blob := func(counts ...uint64) []byte {
		b := append(binary.AppendUvarint([]byte(foldStateMagic), 1), 0)
		for _, c := range counts {
			b = binary.AppendUvarint(b, c)
		}
		return b
	}
	// Claims past 1<<22 groups are not probed: an unbounded decoder
	// would allocate gigabytes before failing.
	blobs := map[string][]byte{
		"1<<22 groups":     blob(1 << 22),
		"1<<40 key length": blob(1, 1<<40),
	}
	if n := len(blobs["1<<22 groups"]); n != 13 {
		t.Fatalf("the 1<<22 blob is %d bytes, want 13", n)
	}
	for name, blob := range blobs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := cs.UnmarshalFoldState(blob)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a %d-byte blob decoded", name, len(blob))
		}
		if grown := after.TotalAlloc - before.TotalAlloc; grown >= 1<<20 {
			t.Fatalf("%s: decoding a %d-byte blob allocated %d bytes", name, len(blob), grown)
		}
	}
}
