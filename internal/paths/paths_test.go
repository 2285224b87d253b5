package paths

import (
	"fmt"
	"strings"
	"testing"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/regex"
)

const coursesDTD = `
<!ELEMENT courses (course*)>
<!ELEMENT course (title, taken_by)>
<!ATTLIST course cno CDATA #REQUIRED>
<!ELEMENT title (#PCDATA)>
<!ELEMENT taken_by (student*)>
<!ELEMENT student (name, grade)>
<!ATTLIST student sno CDATA #REQUIRED>
<!ELEMENT name (#PCDATA)>
<!ELEMENT grade (#PCDATA)>
`

func TestNewMatchesPathsOrder(t *testing.T) {
	d := dtd.MustParse(coursesDTD)
	u, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := d.Paths()
	if err != nil {
		t.Fatal(err)
	}
	if u.Size() != len(ps) {
		t.Fatalf("Size = %d, want %d", u.Size(), len(ps))
	}
	for i, p := range ps {
		if got := u.StringOf(ID(i)); got != p.String() {
			t.Errorf("ID %d = %q, want %q (BFS order must match d.Paths())", i, got, p)
		}
		id, ok := u.Lookup(p)
		if !ok || id != ID(i) {
			t.Errorf("Lookup(%q) = %v,%v, want %d,true", p, id, ok, i)
		}
	}
}

func TestMetadata(t *testing.T) {
	d := dtd.MustParse(coursesDTD)
	u, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		path   string
		parent string // "" for None
		kind   Kind
		mult   regex.Mult
	}{
		{"courses", "", ElemKind, regex.One},
		{"courses.course", "courses", ElemKind, regex.StarM},
		{"courses.course.@cno", "courses.course", AttrKind, regex.One},
		{"courses.course.title", "courses.course", ElemKind, regex.One},
		{"courses.course.title.S", "courses.course.title", TextKind, regex.One},
		{"courses.course.taken_by.student", "courses.course.taken_by", ElemKind, regex.StarM},
	}
	for _, c := range cases {
		id := u.MustLookup(dtd.MustParsePath(c.path))
		info := u.Info(id)
		if c.parent == "" {
			if info.Parent != None {
				t.Errorf("%s: parent = %v, want None", c.path, info.Parent)
			}
		} else if got := u.StringOf(info.Parent); got != c.parent {
			t.Errorf("%s: parent = %q, want %q", c.path, got, c.parent)
		}
		if info.Kind != c.kind {
			t.Errorf("%s: kind = %v, want %v", c.path, info.Kind, c.kind)
		}
		if info.Mult != c.mult {
			t.Errorf("%s: mult = %v, want %v", c.path, info.Mult, c.mult)
		}
		if info.Depth != strings.Count(c.path, ".")+1 {
			t.Errorf("%s: depth = %d", c.path, info.Depth)
		}
	}
	// Child navigation.
	course := u.MustLookup(dtd.MustParsePath("courses.course"))
	if id, ok := u.Child(course, "@cno"); !ok || u.StringOf(id) != "courses.course.@cno" {
		t.Errorf("Child(course, @cno) = %v,%v", id, ok)
	}
	if _, ok := u.Child(course, "nope"); ok {
		t.Error("Child(course, nope) should not exist")
	}
}

func TestLexOrder(t *testing.T) {
	d := dtd.MustParse(coursesDTD)
	u, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	order := u.LexOrder()
	if len(order) != u.Size() {
		t.Fatalf("LexOrder has %d entries, want %d", len(order), u.Size())
	}
	for i := 1; i < len(order); i++ {
		if u.StringOf(order[i-1]) >= u.StringOf(order[i]) {
			t.Fatalf("LexOrder not strictly increasing at %d: %q >= %q",
				i, u.StringOf(order[i-1]), u.StringOf(order[i]))
		}
	}
}

func TestForQuery(t *testing.T) {
	ps := []dtd.Path{
		dtd.MustParsePath("r.a.b.@x"),
		dtd.MustParsePath("r.c.S"),
		dtd.MustParsePath("r.a"),
	}
	u := ForQuery(ps)
	// Prefix closure: r, r.a, r.a.b, r.a.b.@x, r.c, r.c.S.
	want := []string{"r", "r.a", "r.a.b", "r.a.b.@x", "r.c", "r.c.S"}
	if u.Size() != len(want) {
		t.Fatalf("Size = %d, want %d", u.Size(), len(want))
	}
	for i, w := range want {
		if got := u.StringOf(ID(i)); got != w {
			t.Errorf("ID %d = %q, want %q", i, got, w)
		}
	}
	if u.DTD() != nil {
		t.Error("query universe should have nil DTD")
	}
	for i := 0; i < u.Size(); i++ {
		if u.MultOf(ID(i)) != regex.StarM {
			t.Errorf("query mult of %s = %v, want StarM", u.StringOf(ID(i)), u.MultOf(ID(i)))
		}
	}
}

// wideDTD builds a non-recursive DTD whose paths(D) exceeds 64 entries
// so sets span multiple words.
func wideDTD(t *testing.T, elems int) *dtd.DTD {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "<!ELEMENT r (")
	for i := 0; i < elems; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "e%d", i)
	}
	b.WriteString(")>\n")
	for i := 0; i < elems; i++ {
		fmt.Fprintf(&b, "<!ELEMENT e%d (#PCDATA)>\n<!ATTLIST e%d a CDATA #REQUIRED>\n", i, i)
	}
	return dtd.MustParse(b.String())
}

func TestMultiWordUniverse(t *testing.T) {
	d := wideDTD(t, 50) // 1 + 50*(1 elem + 1 attr + 1 text) = 151 paths
	u, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	if u.Size() <= 64 {
		t.Fatalf("want > 64 paths, got %d", u.Size())
	}
	all := u.NewSet()
	for i := 0; i < u.Size(); i++ {
		all.Add(ID(i))
	}
	if all.Count() != u.Size() {
		t.Fatalf("Count = %d, want %d", all.Count(), u.Size())
	}
	if len(all) < 2 {
		t.Fatalf("expected a multi-word set, got %d words", len(all))
	}
	// Round-trip through ForEach.
	var got []ID
	all.ForEach(func(id ID) { got = append(got, id) })
	for i, id := range got {
		if id != ID(i) {
			t.Fatalf("ForEach[%d] = %d", i, id)
		}
	}
}

// TestLookupWalksSteps: Lookup walks the universe by step and agrees
// with the dotted rendering, including when a step contains '.' and
// the rendering is ambiguous.
func TestLookupWalksSteps(t *testing.T) {
	u := ForQuery([]dtd.Path{{"r", "a", "b"}, {"r", "c"}})
	for _, p := range []dtd.Path{{"r"}, {"r", "a"}, {"r", "a", "b"}, {"r", "c"}, {"r", "x"}, {"q"}, {"r", "a", "b", "z"}} {
		got, gok := u.Lookup(p)
		want, wok := u.LookupString(p.String())
		if got != want || gok != wok {
			t.Errorf("Lookup(%v) = %v, %v; LookupString = %v, %v", p, got, gok, want, wok)
		}
	}
	dotted := ForQuery([]dtd.Path{{"r", "a.b"}})
	id, ok := dotted.Lookup(dtd.Path{"r", "a.b"})
	if !ok || dotted.StringOf(id) != "r.a.b" {
		t.Fatalf("dotted step: Lookup = %v, %v", id, ok)
	}
	if alias, ok := dotted.Lookup(dtd.Path{"r", "a", "b"}); !ok || alias != id {
		t.Fatalf("dotted rendering r.a.b: Lookup = %v, %v, want %v as LookupString", alias, ok, id)
	}
}
