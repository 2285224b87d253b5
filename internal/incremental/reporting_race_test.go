package incremental

import (
	"bytes"
	"runtime"
	"testing"

	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

// TestReportingFlipMidTransaction pins the boundary a reader hits when
// it asks a pinned, violated, never-sealed epoch for its report while
// a transaction holds the writer lock: Report turns reporting mode on
// and waits, the transaction heals the document and commits. The
// reader must still get its own epoch's report — the one a full pass
// over the pre-transaction tree gives — not the healed epoch's nil.
func TestReportingFlipMidTransaction(t *testing.T) {
	const doc = `<courses>
  <course cno="c1"><title>A</title><taken_by><student sno="s1"><name>X</name><grade>A</grade></student></taken_by></course>
  <course cno="c1"><title>B</title><taken_by><student sno="s2"><name>Y</name><grade>B</grade></student></taken_by></course>
</courses>`
	sigma, err := xfd.ParseSet("courses.course.@cno -> courses.course\n")
	if err != nil {
		t.Fatal(err)
	}
	cs, err := xfd.NewCheckerSetFor(sigma)
	if err != nil {
		t.Fatal(err)
	}
	tree := xmltree.MustParseString(doc)
	want := cs.Violations(tree) // the pre-transaction tree, same vertex IDs
	if len(want) != 1 {
		t.Fatalf("fixture: %d violations, want 1", len(want))
	}
	s, err := New(cs, tree)
	if err != nil {
		t.Fatal(err)
	}
	pinned := s.Snapshot()
	if pinned.Satisfied() {
		t.Fatal("fixture epoch must be violated")
	}

	tx := s.Begin()
	second := tree.Root.Children[1]
	if err := tx.SetAttr(second.ID, "cno", "c2"); err != nil {
		t.Fatal(err)
	}
	title := second.Children[0]
	if err := tx.SetText(title.ID, "C"); err != nil {
		t.Fatal(err)
	}
	if err := tx.DeleteSubtree(second.Children[1].ID); err != nil {
		t.Fatal(err)
	}
	got := make(chan []xfd.Violated)
	go func() { got <- pinned.Report() }()
	for !s.reporting.Load() {
		runtime.Gosched()
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rep := <-got

	if len(rep) != 1 || !rep[0].FD.Equal(want[0].FD) {
		t.Fatalf("pinned epoch reports %v, want its own violation %v", rep, want)
	}
	for w := 0; w < 2; w++ {
		if a, b := rep[0].Witness[w].AppendKey(nil), want[0].Witness[w].AppendKey(nil); !bytes.Equal(a, b) {
			t.Fatalf("witness %d: pinned epoch %s, full pass %s", w, rep[0].Witness[w].Canonical(), want[0].Witness[w].Canonical())
		}
	}
	if !s.Satisfied() || s.Report() != nil {
		t.Fatal("the committed epoch is healed")
	}
	// The redo left the tree exactly as committed.
	healed := xmltree.MustParseString(doc)
	healed.Root.Children[1].SetAttr("cno", "c2")
	healed.Root.Children[1].Children[0].SetText("C")
	healed.Root.Children[1].Children = healed.Root.Children[1].Children[:1]
	if got, want := s.Tree().String(), healed.String(); got != want {
		t.Fatalf("tree after commit:\n%s\nwant:\n%s", got, want)
	}
}
