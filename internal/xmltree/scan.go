package xmltree

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// This file is the XML scanner behind WalkTokens. It reads the input
// through one reused byte window and turns it into Open/Text/Close
// events without building a token per markup construct:
//
//   - Element and attribute names are interned, so a name costs no
//     allocation after its first sighting; namespace-translated names
//     (uri:local) are interned the same way.
//   - An element's attribute values are carved out of one string: at
//     most one allocation per element, and callers may retain them.
//   - Character data is handed to Text as a slice of the window when no
//     entity, carriage return or comment/CDATA split intervenes, and as
//     a reused buffer otherwise.
//   - All of this per-walk state comes from a sync.Pool, so a sweep of
//     many small documents does not pay for a fresh window per document.
//
// The scanner accepts exactly the input the standard library's strict
// encoding/xml decoder accepts (namespace translation, the five
// predefined entities plus numeric references, DOCTYPE skipped, version
// and encoding checks) and rejects the rest with the same message and
// line number; internal/xmltree/oracle_test.go keeps that decoder-based
// walker as the differential oracle and FuzzWalkTokensOracle holds the
// two together.

const (
	windowSize     = 8 << 10 // initial window; it grows only for a token longer than this
	maxPooledBytes = 1 << 20 // buffers grown past this are dropped rather than pooled
	internMaxLen   = 128     // longer names are not interned
	internMaxNames = 4096    // a full intern table takes no new names and is cleared before the next walk
	xmlNamespace   = "http://www.w3.org/XML/1998/namespace"
)

// frame is one open element.
type frame struct {
	label       string // namespace-translated name, delivered to Open and Close
	raw         string // name as written, which the end tag must repeat
	hasChildren bool
	nsMark      int // len(walker.nsUndo) before this element's declarations
}

// rawAttr is an attribute of the start tag being scanned, before
// namespace translation. Its value is walker.vals[v0:v1].
type rawAttr struct {
	qname
	v0, v1 int
}

// nsUndo restores the binding of prefix when the element that changed
// it closes.
type nsUndo struct {
	prefix, old string
	had         bool
}

// walker is the per-walk scanner state; see walkers.
type walker struct {
	r        io.Reader
	cb       TokenCallbacks
	maxDepth int

	// The window: buf[pos:end] is unread input. more compacts it,
	// keeping buf[mark:] when mark >= 0, and reads further input.
	buf      []byte
	pos, end int
	mark     int
	rerr     error // io.EOF, or the read error, once the input is exhausted
	lines    int   // newlines in the input before buf[0]

	// Pending character data of the innermost element: buf[pendStart:
	// pendEnd] while pendWin, otherwise text.
	text               []byte
	pendWin            bool
	pendStart, pendEnd int

	frames   []frame
	rootSeen bool
	raws     []rawAttr
	vals     []byte // attribute values of the start tag being scanned
	attrs    []Attr
	scratch  []byte
	names    map[string]qname  // intern table of names as written
	xnames   map[string]string // intern table of namespace-translated names
	ns       map[string]string // namespace prefix -> URI in scope
	nsUndo   []nsUndo
}

var walkers = sync.Pool{New: func() any {
	return &walker{
		buf:    make([]byte, windowSize),
		names:  make(map[string]qname),
		xnames: make(map[string]string),
		ns:     make(map[string]string),
	}
}}

// release drops everything that could pin caller memory (the reader,
// the callbacks, attribute values, namespace URIs) and any buffer a
// huge token grew, before the walker goes back to the pool.
func (s *walker) release() {
	s.r, s.cb = nil, TokenCallbacks{}
	if cap(s.buf) > maxPooledBytes {
		s.buf = make([]byte, windowSize)
	}
	if cap(s.text) > maxPooledBytes {
		s.text = nil
	}
	if cap(s.vals) > maxPooledBytes {
		s.vals = nil
	}
	s.text, s.vals, s.scratch = s.text[:0], s.vals[:0], s.scratch[:0]
	clear(s.attrs[:cap(s.attrs)])
	clear(s.frames[:cap(s.frames)])
	clear(s.nsUndo[:cap(s.nsUndo)])
	s.attrs, s.frames, s.raws, s.nsUndo = s.attrs[:0], s.frames[:0], s.raws[:0], s.nsUndo[:0]
	clear(s.ns)
}

// walk scans the document token by token, applying WalkTokens' rules.
func (s *walker) walk() error {
	for {
		if s.pos == s.end && !s.more() {
			break
		}
		if s.buf[s.pos] != '<' {
			if err := s.charData(false); err != nil {
				return err
			}
			continue
		}
		s.pos++
		b, err := s.mustgetc()
		if err != nil {
			return err
		}
		switch b {
		case '/':
			err = s.endTag()
		case '?':
			err = s.procInst()
		case '!':
			err = s.bang()
		default:
			s.pos--
			err = s.startTag()
		}
		if err != nil {
			return err
		}
	}
	if s.rerr != io.EOF {
		return s.readErr()
	}
	if len(s.frames) > 0 {
		return s.syntaxErr("unexpected EOF")
	}
	if !s.rootSeen {
		return malformedf("no root element")
	}
	return nil
}

// more makes further input available: it compacts the window (keeping
// buf[mark:] and the unread bytes), grows it when a single token fills
// most of it, and reads. It reports false once the input is exhausted, with
// the cause in s.rerr.
func (s *walker) more() bool {
	if s.rerr != nil {
		return false
	}
	if s.pendWin {
		s.text = append(s.text, s.buf[s.pendStart:s.pendEnd]...)
		s.pendWin = false
	}
	keep := s.pos
	if s.mark >= 0 && s.mark < keep {
		keep = s.mark
	}
	if keep > 0 {
		s.lines += bytes.Count(s.buf[:keep], []byte{'\n'})
		s.end = copy(s.buf, s.buf[keep:s.end])
		s.pos -= keep
		if s.mark >= 0 {
			s.mark -= keep
		}
	}
	if len(s.buf)-s.end < len(s.buf)/4 {
		// A token fills most of the window: grow it rather than read
		// in ever smaller pieces.
		grown := make([]byte, 2*len(s.buf))
		copy(grown, s.buf[:s.end])
		s.buf = grown
	}
	for range 100 {
		n, err := s.r.Read(s.buf[s.end:])
		if n > 0 {
			s.end += n
		}
		if err != nil {
			s.rerr = err
			return n > 0
		}
		if n > 0 {
			return true
		}
	}
	s.rerr = io.ErrNoProgress
	return false
}

// ensure reports whether n unread bytes are available.
func (s *walker) ensure(n int) bool {
	for s.end-s.pos < n {
		if !s.more() {
			return false
		}
	}
	return true
}

// mustgetc consumes one byte; input ending here is an error.
func (s *walker) mustgetc() (byte, error) {
	if s.pos == s.end && !s.more() {
		return 0, s.eofErr("unexpected EOF")
	}
	b := s.buf[s.pos]
	s.pos++
	return b, nil
}

// space skips XML white space.
func (s *walker) space() {
	for s.pos < s.end || s.more() {
		switch s.buf[s.pos] {
		case ' ', '\r', '\n', '\t':
			s.pos++
		default:
			return
		}
	}
}

// syntaxErr reports msg at the line of the current position, worded as
// the standard library's decoder words its syntax errors.
func (s *walker) syntaxErr(msg string) error {
	line := 1 + s.lines + bytes.Count(s.buf[:s.pos], []byte{'\n'})
	return &MalformedError{Err: errors.New("xmltree: XML syntax error on line " + strconv.Itoa(line) + ": " + msg)}
}

// eofErr reports input that ended inside a token: msg at a clean end
// of input, the read error otherwise.
func (s *walker) eofErr(msg string) error {
	if s.rerr == io.EOF {
		return s.syntaxErr(msg)
	}
	return s.readErr()
}

func (s *walker) readErr() error {
	return &MalformedError{Err: fmt.Errorf("xmltree: %v", s.rerr)}
}

// nameByte marks the bytes a name is read over: ASCII name characters
// and every non-ASCII byte (isXMLName checks the runes afterwards).
var nameByte = func() (t [256]bool) {
	for c := 0; c < 256; c++ {
		t[c] = 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
			c == '_' || c == ':' || c == '.' || c == '-' || c >= utf8.RuneSelf
	}
	return t
}()

// readName consumes a run of name bytes, returning its start: the name
// is buf[start:s.pos] and stays in the window while s.mark == start,
// which the caller resets to -1 when done. An empty run means the next
// byte cannot start a name. Input ending inside the name is an error.
func (s *walker) readName() (int, error) {
	s.mark = s.pos
	for {
		for s.pos < s.end && nameByte[s.buf[s.pos]] {
			s.pos++
		}
		if s.pos < s.end {
			return s.mark, nil
		}
		if !s.more() {
			s.mark = -1
			return 0, s.eofErr("unexpected EOF")
		}
	}
}

// isXMLName reports whether b is an XML 1.0 Name.
func isXMLName(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	for i := 0; i < len(b); {
		if c := b[i]; c < utf8.RuneSelf {
			if i == 0 && !('A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_' || c == ':') {
				return false
			}
			i++
			continue
		}
		r, n := utf8.DecodeRune(b[i:])
		if r == utf8.RuneError && n == 1 {
			return false
		}
		if !unicode.Is(nameFirst, r) && (i == 0 || !unicode.Is(nameRest, r)) {
			return false
		}
		i += n
	}
	return true
}

// splitName splits a name into namespace prefix and local part; a
// name with no colon, or a colon at either end, has no prefix.
func splitName(raw string) (space, local string) {
	if i := strings.IndexByte(raw, ':'); i > 0 && i < len(raw)-1 {
		return raw[:i], raw[i+1:]
	}
	return "", raw
}

// qname is a name as written, split at its namespace prefix.
type qname struct{ raw, space, local string }

// readQName reads an element or attribute name. A name seen before comes
// from the intern table, already checked and split; missing is the
// error for input with no name here (or a name with two colons).
func (s *walker) readQName(missing string) (qname, error) {
	start, err := s.readName()
	if err != nil {
		return qname{}, err
	}
	b := s.buf[start:s.pos]
	s.mark = -1
	if q, ok := s.names[string(b)]; ok {
		return q, nil
	}
	switch {
	case len(b) == 0:
		return qname{}, s.syntaxErr(missing)
	case !isXMLName(b):
		return qname{}, s.syntaxErr("invalid XML name: " + string(b))
	case bytes.Count(b, []byte{':'}) > 1:
		return qname{}, s.syntaxErr(missing)
	}
	q := qname{raw: string(b)}
	q.space, q.local = splitName(q.raw)
	if len(b) <= internMaxLen && len(s.names) < internMaxNames {
		s.names[q.raw] = q
	}
	return q, nil
}

// translate applies the namespace declarations in scope to a name:
// a declared prefix (or, for element names, the default namespace) is
// replaced by its URI, xml: by the XML namespace, and anything else is
// kept verbatim.
func (s *walker) translate(q qname, elem bool) string {
	raw, space, local := q.raw, q.space, q.local
	switch {
	case space == "xmlns", space == "" && !elem, space == "" && local == "xmlns":
		return raw
	case space == "xml":
		space = xmlNamespace
	default:
		if v, ok := s.ns[space]; ok {
			space = v
		}
	}
	switch {
	case space == "":
		return local
	case len(raw) == len(space)+1+len(local) && raw[:len(space)] == space && raw[len(space)] == ':':
		return raw // an undeclared prefix stays as written
	}
	s.scratch = append(append(append(s.scratch[:0], space...), ':'), local...)
	if v, ok := s.xnames[string(s.scratch)]; ok {
		return v
	}
	v := string(s.scratch)
	if len(v) <= internMaxLen && len(s.xnames) < internMaxNames {
		s.xnames[v] = v
	}
	return v
}

// startTag scans a start tag (after its '<') and delivers Open, plus
// Close for an empty-element tag.
func (s *walker) startTag() error {
	name, err := s.readQName("expected element name after <")
	if err != nil {
		return err
	}
	s.raws, s.vals = s.raws[:0], s.vals[:0]
	empty := false
	for {
		s.space()
		b, err := s.mustgetc()
		if err != nil {
			return err
		}
		if b == '/' {
			if b, err = s.mustgetc(); err != nil {
				return err
			}
			if b != '>' {
				return s.syntaxErr("expected /> in element")
			}
			empty = true
			break
		}
		if b == '>' {
			break
		}
		s.pos--
		a := rawAttr{}
		if a.qname, err = s.readQName("expected attribute name in element"); err != nil {
			return err
		}
		s.space()
		if b, err = s.mustgetc(); err != nil {
			return err
		}
		if b != '=' {
			return s.syntaxErr("attribute name without = in element")
		}
		s.space()
		if b, err = s.mustgetc(); err != nil {
			return err
		}
		if b != '"' && b != '\'' {
			return s.syntaxErr("unquoted or missing attribute value in element")
		}
		a.v0 = len(s.vals)
		if _, _, err := s.chars(b, false, true, &s.vals); err != nil {
			return err
		}
		a.v1 = len(s.vals)
		s.raws = append(s.raws, a)
	}

	// Declarations on this element apply to its own name and to all of
	// its attribute names, so bind them first.
	var all string
	if len(s.vals) > 0 {
		all = string(s.vals)
	}
	nsMark := len(s.nsUndo)
	for _, a := range s.raws {
		switch {
		case a.space == "xmlns":
			s.bind(a.local, all[a.v0:a.v1])
		case a.space == "" && a.local == "xmlns":
			s.bind("", all[a.v0:a.v1])
		}
	}
	label := name.raw
	if name.space != "" || len(s.ns) > 0 {
		label = s.translate(name, true)
	}

	if len(s.frames) == 0 {
		if s.rootSeen {
			return malformedf("multiple root elements")
		}
		s.rootSeen = true
	} else {
		top := &s.frames[len(s.frames)-1]
		if s.pendWin || len(s.text) > 0 {
			return malformedf("mixed content under <%s>", top.label)
		}
		top.hasChildren = true
	}
	if s.maxDepth > 0 && len(s.frames)+1 > s.maxDepth {
		return &DepthError{Depth: len(s.frames) + 1, Limit: s.maxDepth}
	}
	s.attrs = s.attrs[:0]
	for _, a := range s.raws {
		aname := a.raw
		if a.space != "" {
			aname = s.translate(a.qname, false)
		}
		if aname == "xmlns" || strings.HasPrefix(aname, "xmlns:") {
			continue
		}
		s.attrs = append(s.attrs, Attr{Name: aname, Value: all[a.v0:a.v1]})
	}
	if s.cb.Open != nil {
		if err := s.cb.Open(label, s.attrs); err != nil {
			return err
		}
	}
	s.frames = append(s.frames, frame{label: label, raw: name.raw, nsMark: nsMark})
	if empty {
		return s.closeTop()
	}
	return nil
}

// bind declares prefix (empty: the default namespace) for the element
// being opened and its descendants.
func (s *walker) bind(prefix, uri string) {
	old, had := s.ns[prefix]
	s.nsUndo = append(s.nsUndo, nsUndo{prefix: prefix, old: old, had: had})
	s.ns[prefix] = uri
}

// endTag scans an end tag (after its "</") and closes the innermost
// element, which it must name.
func (s *walker) endTag() error {
	start, err := s.readName()
	if err != nil {
		return err
	}
	n := s.pos - start
	b := s.buf[start:s.pos]
	matches := len(s.frames) > 0 && string(b) == s.frames[len(s.frames)-1].raw
	switch {
	case matches:
		// The start tag's name, already checked.
	case n == 0:
		s.mark = -1
		return s.syntaxErr("expected element name after </")
	case !isXMLName(b):
		s.mark = -1
		return s.syntaxErr("invalid XML name: " + string(b))
	case bytes.Count(b, []byte{':'}) > 1:
		s.mark = -1
		return s.syntaxErr("expected element name after </")
	}
	s.space()
	c, err := s.mustgetc()
	b = s.buf[s.mark : s.mark+n]
	s.mark = -1
	if err != nil {
		return err
	}
	if c == '>' && matches {
		return s.closeTop()
	}
	space, local := splitName(string(b))
	switch {
	case c != '>':
		return s.syntaxErr("invalid characters between </" + local + " and >")
	case len(s.frames) == 0:
		return s.syntaxErr("unexpected end element </" + local + ">")
	}
	topSpace, topLocal := splitName(s.frames[len(s.frames)-1].raw)
	if topLocal != local {
		return s.syntaxErr("element <" + topLocal + "> closed by </" + local + ">")
	}
	if space == "" {
		space = `""`
	}
	return s.syntaxErr("element <" + topLocal + "> in space " + topSpace + " closed by </" + local + "> in space " + space)
}

// closeTop delivers the innermost element's pending text and its Close,
// and ends its namespace declarations.
func (s *walker) closeTop() error {
	text := s.text
	if s.pendWin {
		text = s.buf[s.pendStart:s.pendEnd]
		s.pendWin = false
	}
	s.text = s.text[:0]
	if len(text) > 0 && s.cb.Text != nil {
		if err := s.cb.Text(text); err != nil {
			return err
		}
	}
	top := s.frames[len(s.frames)-1]
	s.frames = s.frames[:len(s.frames)-1]
	for len(s.nsUndo) > top.nsMark {
		u := s.nsUndo[len(s.nsUndo)-1]
		s.nsUndo = s.nsUndo[:len(s.nsUndo)-1]
		if u.had {
			s.ns[u.prefix] = u.old
		} else {
			delete(s.ns, u.prefix)
		}
	}
	if s.cb.Close != nil {
		return s.cb.Close(top.label)
	}
	return nil
}

// charData scans one chunk of character data (text up to the next
// markup, or a CDATA section after its "<![CDATA[") and adds it to the
// innermost element's pending text. Whitespace-only chunks are
// dropped; other character data must sit in an element without
// element children.
func (s *walker) charData(cdata bool) error {
	if s.pendWin {
		// A second chunk: the pending text moves to s.text so this
		// one can follow it there.
		s.text = append(s.text, s.buf[s.pendStart:s.pendEnd]...)
		s.pendWin = false
	}
	base := len(s.text)
	out, zs, err := s.chars(0, cdata, false, &s.text)
	if err != nil {
		return err
	}
	if blank(out) {
		s.text = s.text[:base]
		return nil
	}
	if len(s.frames) == 0 {
		return malformedf("character data outside the root element")
	}
	if top := &s.frames[len(s.frames)-1]; top.hasChildren {
		return malformedf("mixed content under <%s>", top.label)
	}
	switch {
	case zs < 0:
		// Copied: already in place after the earlier chunks.
	case base == 0:
		s.pendWin, s.pendStart, s.pendEnd = true, zs, zs+len(out)
	default:
		s.text = append(s.text, out...)
	}
	return nil
}

// blank reports whether b is all white space in bytes.TrimSpace's
// sense, which includes Unicode spaces such as U+00A0.
func blank(b []byte) bool {
	for i, c := range b {
		switch {
		case c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' || c == '\f':
		case c < utf8.RuneSelf:
			return false
		default:
			return len(bytes.TrimSpace(b[i:])) == 0
		}
	}
	return true
}

// Byte classes for chars' scan loop.
const (
	cLT    = 1 << iota // '<'
	cAmp               // '&'
	cCR                // '\r'
	cRB                // ']'
	cQuot              // '"'
	cApos              // '\''
	cCheck             // a byte whose rune needs checking: C0 controls but \t \n \r, and non-ASCII
)

var charClass = func() (t [256]uint8) {
	t['<'], t['&'], t['\r'], t[']'], t['"'], t['\''] = cLT, cAmp, cCR, cRB, cQuot, cApos
	for c := 0; c < 256; c++ {
		if c < 0x20 && c != '\t' && c != '\n' && c != '\r' || c >= utf8.RuneSelf {
			t[c] = cCheck
		}
	}
	return t
}()

// chars scans character data: text up to the next '<' or the end of
// input (quote 0, !cdata), an attribute value up to its closing quote
// (quote is the opening quote byte), or a CDATA section up to "]]>".
// Entities are expanded (outside CDATA), "\r\n" and a lone '\r' become
// '\n', and the result must be valid UTF-8 made of XML characters.
//
// When the output is an unmodified run of the input and mustCopy is false,
// it is returned as a window slice starting at buf[zs] and nothing is
// appended to *dst; otherwise it is appended to *dst, returned as that
// suffix, and zs is -1.
func (s *walker) chars(quote byte, cdata, mustCopy bool, dst *[]byte) (out []byte, zs int, err error) {
	var stop uint8
	switch {
	case cdata:
		stop = cRB | cCR
	case quote == '"':
		stop = cLT | cAmp | cCR | cQuot
	case quote == '\'':
		stop = cLT | cAmp | cCR | cApos
	default:
		stop = cLT | cAmp | cCR | cRB
	}
	out0 := len(*dst)
	copied, check := mustCopy, false
	s.mark = s.pos // start of the current uncopied run
	runEnd := -1   // where the final run ends, once found
	for runEnd < 0 {
		i, buf := s.pos, s.buf[:s.end]
		for i < len(buf) {
			c := charClass[buf[i]]
			if c != 0 {
				if c&stop != 0 {
					break
				}
				if c&cCheck != 0 {
					check = true
				}
			}
			i++
		}
		s.pos = i
		if i == len(buf) {
			if s.more() {
				continue
			}
			if cdata {
				s.mark = -1
				return nil, -1, s.eofErr("unexpected EOF in CDATA section")
			}
			runEnd = s.pos
			break
		}
		switch buf[i] {
		case '<':
			if quote != 0 {
				s.mark = -1
				s.pos++
				return nil, -1, s.syntaxErr("unescaped < inside quoted string")
			}
			runEnd = s.pos
		case '"', '\'':
			runEnd = s.pos
			s.pos++
		case ']':
			if s.ensure(3) && s.buf[s.pos+1] == ']' && s.buf[s.pos+2] == '>' {
				if !cdata {
					s.mark = -1
					s.pos += 3
					return nil, -1, s.syntaxErr("unescaped ]]> not in CDATA section")
				}
				runEnd = s.pos
				s.pos += 3
			} else {
				s.pos++
			}
		case '\r':
			*dst = append(*dst, s.buf[s.mark:s.pos]...)
			*dst = append(*dst, '\n')
			copied = true
			s.pos++
			s.mark = s.pos
			if s.ensure(1) && s.buf[s.pos] == '\n' {
				s.pos++
				s.mark = s.pos
			}
		case '&':
			*dst = append(*dst, s.buf[s.mark:s.pos]...)
			copied = true
			s.pos++
			s.mark = -1
			numeric, err := s.entity(dst)
			if err != nil {
				return nil, -1, err
			}
			check = check || numeric
			s.mark = s.pos
		}
	}
	if copied {
		*dst = append(*dst, s.buf[s.mark:runEnd]...)
		out, zs = (*dst)[out0:], -1
	} else {
		out, zs = s.buf[s.mark:runEnd], s.mark
	}
	s.mark = -1
	if check {
		if msg := checkChars(out); msg != "" {
			return nil, -1, s.syntaxErr(msg)
		}
	}
	return out, zs, nil
}

// entity decodes a character reference after its '&', appending the
// character to *dst. Only the five predefined entities and numeric
// references are known. It reports whether the reference was numeric
// (and so may produce a character that needs checking).
func (s *walker) entity(dst *[]byte) (numeric bool, err error) {
	s.scratch = append(s.scratch[:0], '&')
	b, err := s.mustgetc()
	if err != nil {
		return false, err
	}
	if b == '#' {
		s.scratch = append(s.scratch, b)
		if b, err = s.mustgetc(); err != nil {
			return false, err
		}
		base := 10
		if b == 'x' {
			base = 16
			s.scratch = append(s.scratch, b)
			if b, err = s.mustgetc(); err != nil {
				return false, err
			}
		}
		digits := len(s.scratch)
		for '0' <= b && b <= '9' || base == 16 && ('a' <= b && b <= 'f' || 'A' <= b && b <= 'F') {
			s.scratch = append(s.scratch, b)
			if b, err = s.mustgetc(); err != nil {
				return false, err
			}
		}
		if b != ';' {
			s.pos--
			return true, s.badEntity()
		}
		n, perr := strconv.ParseUint(string(s.scratch[digits:]), base, 64)
		s.scratch = append(s.scratch, ';')
		if perr != nil || n > unicode.MaxRune {
			return true, s.badEntity()
		}
		*dst = utf8.AppendRune(*dst, rune(n))
		return true, nil
	}
	s.pos--
	start, err := s.readName()
	if err != nil {
		return false, err
	}
	s.scratch = append(s.scratch, s.buf[start:s.pos]...)
	s.mark = -1
	if b, err = s.mustgetc(); err != nil {
		return false, err
	}
	if b != ';' {
		s.pos--
		return false, s.badEntity()
	}
	s.scratch = append(s.scratch, ';')
	var r byte
	switch string(s.scratch[1 : len(s.scratch)-1]) {
	case "lt":
		r = '<'
	case "gt":
		r = '>'
	case "amp":
		r = '&'
	case "apos":
		r = '\''
	case "quot":
		r = '"'
	default:
		return false, s.badEntity()
	}
	*dst = append(*dst, r)
	return false, nil
}

// badEntity reports the reference in s.scratch as unknown.
func (s *walker) badEntity() error {
	ent := string(s.scratch)
	if ent[len(ent)-1] != ';' {
		ent += " (no semicolon)"
	}
	return s.syntaxErr("invalid character entity " + ent)
}

// checkChars returns the complaint about the first byte sequence of b
// that is not valid UTF-8 or not an XML character, or "".
func checkChars(b []byte) string {
	for i := 0; i < len(b); {
		r, n := rune(b[i]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && n == 1 {
				return "invalid UTF-8"
			}
		}
		if !(r == 0x09 || r == 0x0A || r == 0x0D || r >= 0x20 && r <= 0xD7FF ||
			r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= 0x10FFFF) {
			return fmt.Sprintf("illegal character code %U", r)
		}
		i += n
	}
	return ""
}

// procInst scans a processing instruction (after its "<?"). The XML
// declaration must not declare another version than 1.0 or an encoding
// other than UTF-8.
func (s *walker) procInst() error {
	start, err := s.readName()
	if err != nil {
		return err
	}
	b := s.buf[start:s.pos]
	s.mark = -1
	switch {
	case len(b) == 0:
		return s.syntaxErr("expected target name after <?")
	case !isXMLName(b):
		return s.syntaxErr("invalid XML name: " + string(b))
	}
	decl := string(b) == "xml"
	s.space()
	if decl {
		s.mark = s.pos
	}
	var b0 byte
	for {
		c, err := s.mustgetc()
		if err != nil {
			s.mark = -1
			return err
		}
		if b0 == '?' && c == '>' {
			break
		}
		b0 = c
	}
	if !decl {
		return nil
	}
	body := string(s.buf[s.mark : s.pos-2])
	s.mark = -1
	if ver := declParam("version", body); ver != "" && ver != "1.0" {
		return &MalformedError{Err: fmt.Errorf("xmltree: xml: unsupported version %q; only version 1.0 is supported", ver)}
	}
	if enc := declParam("encoding", body); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return &MalformedError{Err: fmt.Errorf("xmltree: xml: encoding %q declared but Decoder.CharsetReader is nil", enc)}
	}
	return nil
}

// declParam returns the value of param in an XML declaration body: the
// quoted string after the first "param=" that is followed by a quote.
func declParam(param, body string) string {
	param += "="
	i := 0
	var quote byte
	for i < len(body) {
		rest := body[i:]
		k := strings.Index(rest, param)
		if k < 0 || k+len(param) >= len(rest) {
			return ""
		}
		i += k + len(param) + 1
		if c := rest[k+len(param)]; c == '\'' || c == '"' {
			quote = c
			break
		}
	}
	if quote == 0 {
		return ""
	}
	j := strings.IndexByte(body[i:], quote)
	if j < 0 {
		return ""
	}
	return body[i : i+j]
}

// bang scans the construct after "<!": a comment, a CDATA section or a
// directive such as a DOCTYPE, whose internal subset (quoted strings,
// nested declarations and comments) is skipped.
func (s *walker) bang() error {
	b, err := s.mustgetc()
	if err != nil {
		return err
	}
	switch b {
	case '-':
		if b, err = s.mustgetc(); err != nil {
			return err
		}
		if b != '-' {
			return s.syntaxErr("invalid sequence <!- not part of <!--")
		}
		var b0, b1 byte
		for {
			if b, err = s.mustgetc(); err != nil {
				return err
			}
			if b0 == '-' && b1 == '-' {
				if b != '>' {
					return s.syntaxErr(`invalid sequence "--" not allowed in comments`)
				}
				return nil
			}
			b0, b1 = b1, b
		}
	case '[':
		for i := range 6 {
			if b, err = s.mustgetc(); err != nil {
				return err
			}
			if b != "CDATA["[i] {
				return s.syntaxErr("invalid <![ sequence")
			}
		}
		return s.charData(true)
	}
	var inquote byte
	depth := 0
	for {
		if b, err = s.mustgetc(); err != nil {
			return err
		}
		if inquote == 0 && b == '>' && depth == 0 {
			return nil
		}
	handle:
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			for i := range 3 {
				if b, err = s.mustgetc(); err != nil {
					return err
				}
				if b != "!--"[i] {
					depth++
					goto handle
				}
			}
			var b0, b1 byte
			for {
				if b, err = s.mustgetc(); err != nil {
					return err
				}
				if b0 == '-' && b1 == '-' && b == '>' {
					break
				}
				b0, b1 = b1, b
			}
		}
	}
}
