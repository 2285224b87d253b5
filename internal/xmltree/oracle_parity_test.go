package xmltree

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"unicode/utf8"

	"xmlnorm/internal/paperdata"
)

// walkResult is everything a walk reports: its events in order and
// its outcome.
type walkResult struct {
	events []string
	err    error
}

// record walks src with walk, logging every event.
func record(walk func(io.Reader, int, TokenCallbacks) error, r io.Reader, maxDepth int) walkResult {
	var res walkResult
	res.err = walk(r, maxDepth, TokenCallbacks{
		Open: func(label string, attrs []Attr) error {
			ev := "open " + label
			for _, a := range attrs {
				ev += fmt.Sprintf(" %q=%q", a.Name, a.Value)
			}
			res.events = append(res.events, ev)
			return nil
		},
		Text: func(text []byte) error {
			res.events = append(res.events, fmt.Sprintf("text %q", text))
			return nil
		},
		Close: func(label string) error {
			res.events = append(res.events, "close "+label)
			return nil
		},
	})
	return res
}

// sameOutcome reports how got differs from the oracle's want: in
// acceptance, error text, error type and DepthError values, or (on
// accepted input) the event sequence.
func sameOutcome(got, want walkResult) string {
	if (got.err == nil) != (want.err == nil) {
		return fmt.Sprintf("scanner err %v, oracle err %v", got.err, want.err)
	}
	if got.err != nil {
		if got.err.Error() != want.err.Error() {
			return fmt.Sprintf("scanner err %q, oracle err %q", got.err, want.err)
		}
		var gd, wd *DepthError
		if errors.As(got.err, &gd) != errors.As(want.err, &wd) || gd != nil && *gd != *wd {
			return fmt.Sprintf("scanner err %#v, oracle err %#v", got.err, want.err)
		}
		var gm, wm *MalformedError
		if errors.As(got.err, &gm) != errors.As(want.err, &wm) {
			return fmt.Sprintf("scanner err %T, oracle err %T", got.err, want.err)
		}
		return ""
	}
	if strings.Join(got.events, "\n") != strings.Join(want.events, "\n") {
		return fmt.Sprintf("scanner events %q, oracle events %q", got.events, want.events)
	}
	return ""
}

// checkParity runs the scanner and the oracle on src, whole and one
// byte per Read (which puts a window refill inside every token).
func checkParity(t *testing.T, src string, maxDepth int) {
	t.Helper()
	want := record(oracleWalkTokens, strings.NewReader(src), maxDepth)
	if d := sameOutcome(record(WalkTokens, strings.NewReader(src), maxDepth), want); d != "" {
		t.Fatalf("%q (maxDepth %d): %s", src, maxDepth, d)
	}
	if d := sameOutcome(record(WalkTokens, iotest.OneByteReader(strings.NewReader(src)), maxDepth), want); d != "" {
		t.Fatalf("%q (maxDepth %d, one byte per read): %s", src, maxDepth, d)
	}
}

// parityTraps are the places where a hand-written scanner most easily
// drifts from encoding/xml: namespaces, entities, declarations,
// whitespace, line ends and the decoder's rejections.
var parityTraps = []string{
	// Namespaces.
	`<r xmlns="u"><a/></r>`,
	`<r xmlns="u" k="v"><a k="v"/></r>`,
	`<r xmlns:p="u"><p:a p:k="1"/></r>`,
	`<p:a p:k="1" xmlns:p="u"/>`,
	`<r><q:b/></r>`,
	`<r xml:lang="en"/>`,
	`<r:/>`,
	`<:r/>`,
	`<a:b:c/>`,
	`<r a:b:c="1"/>`,
	`<r xmlns:p="u"><p:a></p:a></r>`,
	`<r xmlns:p="u"><p:a></q:a></r>`,
	`<r><p:a></a></r>`,
	`<r xmlns:p="u"><a xmlns:p="v"><p:b/></a><p:c/></r>`,
	`<r xmlns="u"><a xmlns=""><b/></a><c/></r>`,
	`<xmlns xmlns="u"><xmlns:a/></xmlns>`,
	`<r xmlns:p="xmlns"><a p:k="1" q="2"/></r>`,
	`<r xmlns="u"><r:/></r>`,
	`<r xmlns:p=""><p:a/></r>`,
	// Entities.
	`<r>&lt;&gt;&amp;&apos;&quot;</r>`,
	`<r>&#65;&#x42;&#X43;</r>`,
	`<r>&#xD800;</r>`,
	`<r>&#0;</r>`,
	`<r>&#1114112;</r>`,
	`<r>&#99999999999999999999;</r>`,
	`<r>&#;</r>`,
	`<r>&#x;</r>`,
	`<r>&#12a;</r>`,
	`<r>&foo;</r>`,
	`<r>&amp</r>`,
	`<r>& amp;</r>`,
	`<r>&;</r>`,
	`<r a="&lt;&#10;x"/>`,
	`<!DOCTYPE r [<!ENTITY e "x">]><r>&e;</r>`,
	`<!DOCTYPE r [<!ENTITY e "x>y"> <!-- c > --> <!ELEMENT r ANY>]><r/>`,
	`<!DOCTYPE r><r/>`,
	`<!><r/>`,
	// Declarations.
	`<?xml version="1.0" encoding="UTF-8"?><r/>`,
	`<?xml version="1.1"?><r/>`,
	`<?xml version='1.0' encoding='latin-1'?><r/>`,
	`<?xml version="1.0" encoding="utf-8"?><r/>`,
	`<?xml encoding="Utf-8"?><r/>`,
	`<?xml-stylesheet href="a"?><r/>`,
	`<?pi?><r/><?pi after?>`,
	`<?1pi?><r/>`,
	`<??><r/>`,
	// Whitespace and chunking.
	"<r>\u00a0</r>",
	"\u00a0<r/>\u00a0",
	"<r>a<![CDATA[ ]]></r>",
	"<r>a<![CDATA[b]]>c</r>",
	"<r><![CDATA[<&>]]]></r>",
	"<r><![CDATA[x]]></r>",
	"<r>a<!-- c -->b</r>",
	"<r> <!-- c -->b </r>",
	"<r>a<?pi?>b</r>",
	"<r>\n  <a/>\n</r>",
	"<r><a/> </r>",
	"<r><a/>x</r>",
	"<r>&#32;</r>",
	"<r>&#32;<a/></r>",
	// Line ends and tabs.
	"<r>a\r\nb\rc\td</r>",
	"<r a=\"x\r\ny\rz\tw\"/>",
	"<r>\r\r\n</r>",
	"<r><![CDATA[a\r\nb]]></r>",
	// Rejections.
	"<r>a]]>b</r>",
	"<r a=\"]]>\"/>",
	"<r><!-- a -- b --></r>",
	"<r><!-- a ---></r>",
	"<r><!----></r>",
	"<r>\x01</r>",
	"<r a=\"\x01\"/>",
	"<r>\xff</r>",
	"<r\xff/>",
	"<r a=\"<\"/>",
	"<r a=1/>",
	"<r a/>",
	"<r a=/>",
	"<r a=\"1\"b=\"2\"/>",
	"<r/ >",
	"<r></r >",
	"<r></r x>",
	"</r>",
	"<r/></r>",
	"<1r/>",
	"<-r/>",
	"< r/>",
	"<r><!- x --></r>",
	"<r><![CDAT[x]]></r>",
	"<r><![CDATA[x",
	"<r>\n<a>\n</b>\n</r>",
	"<r\n\n",
	"<r a=\"x\n\n",
	"<r a=\"\xff",
	"<r>&amp",
	"<r>&#x",
	"<r><!--",
	"<!DOCTYPE",
	"<?xml",
	"\ufeff<r/>",
	"<r>\ufffe</r>",
	"<r>é<é/></r>",
	"<é:ü ü:é=\"1\"/>",
	"<r a=\"1\" a=\"2\"/>",
	"<r><a>x</a><a>y</a></r>",
	"<r><a>x<b/></a></r>",
	"<r/>x",
	"<r/><r/>",
	"",
	"   ",
	"<!-- only -->",
}

// TestWalkTokensOracleTable runs every parity trap, every case of
// TestWalkTokensParseAgreement and documents with rejections past the
// first line through checkParity, which compares error text
// byte for byte; at least 25 of the inputs must be malformed.
func TestWalkTokensOracleTable(t *testing.T) {
	inputs := append([]string{
		"<r/><r/>", "", "<r><a>", "x<r/>", "<r></q>", "<r><a/>text</r>", "<r>text<a/></r>",
		"<r>\n<a>\n\n&bogus;</a></r>",
		"<r>\n\n<a b='1'\n c=2/></r>",
		"<r>\r\n\r\n\xff</r>",
		"<r>\n\n</r>\n\n</r>",
	}, parityTraps...)
	rejected := 0
	for _, src := range inputs {
		checkParity(t, src, 0)
		checkParity(t, src, 2)
		if oracleWalkTokens(strings.NewReader(src), 0, TokenCallbacks{}) != nil {
			rejected++
		}
	}
	if rejected < 25 {
		t.Fatalf("only %d malformed inputs exercised, want >= 25", rejected)
	}
}

// TestWalkTokensOracleNameRunes compares the name rules on every BMP
// rune, as the first and as a later character of element and attribute
// names.
func TestWalkTokensOracleNameRunes(t *testing.T) {
	for r := rune(0x80); r <= 0xFFFF; r++ {
		if !utf8.ValidRune(r) {
			continue
		}
		c := string(r)
		for _, src := range []string{"<" + c + "/>", "<a" + c + "/>", "<r " + c + "=\"1\"/>", "<r a" + c + "=\"1\"/>"} {
			want := oracleWalkTokens(strings.NewReader(src), 0, TokenCallbacks{})
			got := WalkTokens(strings.NewReader(src), 0, TokenCallbacks{})
			if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
				t.Fatalf("%q: scanner err %v, oracle err %v", src, got, want)
			}
		}
	}
}

// TestWalkTokensOracleLongTokens drives tokens longer than the window
// (names, attribute values, text, comments, CDATA) through the refill
// and growth paths, and more distinct names than the intern table
// takes through a full table.
func TestWalkTokensOracleLongTokens(t *testing.T) {
	long := strings.Repeat("abcdefgh", 3*windowSize/8)
	var names strings.Builder
	for i := range internMaxNames + 100 {
		fmt.Fprintf(&names, "<n%d a%d='%d'/>", i, i, i)
	}
	for _, src := range []string{
		"<r>" + names.String() + "</r>",
		"<r>" + names.String() + "</r>",
		"<" + long + "/>",
		"<r a=\"" + long + "\" b='&amp;" + long + "'/>",
		"<r>" + long + "</r>",
		"<r>" + long + "&amp;" + long + "\r\n" + long + "</r>",
		"<r>" + long + "<!--" + long + "-->" + long + "</r>",
		"<r>x<!--" + long + "--></r>",
		"<r><![CDATA[" + long + "]]></r>",
		"<r>" + strings.Repeat("<a>x</a>\n", windowSize) + "</r>",
		"<r>" + long + "]]>",
		"<r>" + long + "\xff</r>",
	} {
		checkParity(t, src, 0)
	}
}

// errAfter is a reader that fails with err once its data runs out.
type errAfter struct {
	r   io.Reader
	err error
}

func (e *errAfter) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err == io.EOF {
		err = e.err
	}
	return n, err
}

// TestWalkTokensOracleReadError: a read error surfaces where the
// oracle reports it — after every token completed before it, in place
// of "unexpected EOF".
func TestWalkTokensOracleReadError(t *testing.T) {
	boom := errors.New("boom")
	for _, src := range []string{"", "<r>", "<r><a>text", "<r a=\"x", "<r/>", "<r/>x", "<r><!-- c", "<r><![CDATA[x"} {
		want := record(oracleWalkTokens, &errAfter{strings.NewReader(src), boom}, 0)
		got := record(WalkTokens, &errAfter{strings.NewReader(src), boom}, 0)
		if d := sameOutcome(got, want); d != "" {
			t.Errorf("%q: %s", src, d)
		}
	}
}

// FuzzWalkTokensOracle holds the scanner to the encoding/xml oracle:
// on every input both accept or both reject, with identical error text
// and DepthError values, and accepted input yields identical event
// sequences.
func FuzzWalkTokensOracle(f *testing.F) {
	for _, s := range []string{
		"<a/>", "<a><b/>text</a>", "<a x='1'><b>t</b></a>", "<a>", "text",
		`<r><x k="&lt;&amp;"/><y>1 &lt; 2</y></r>`,
	} {
		f.Add(s, uint8(0))
	}
	for _, s := range parityTraps {
		f.Add(s, uint8(0))
	}
	courses := paperdata.MustRead("courses.xml")
	f.Add(courses, uint8(0))
	f.Add(courses, uint8(3))
	f.Add(courses[:len(courses)/2], uint8(0))
	f.Fuzz(func(t *testing.T, src string, depth uint8) {
		checkParity(t, src, int(depth%8))
	})
}
