package xmltree

import (
	"fmt"
	"io"
)

// This file is the streaming (SAX-style) front end of the data model:
// WalkTokens runs the scanner of scan.go over a reader — one reused
// byte window, interned names, text handed out without copying — and
// delivers the document as Open/Text/Close callbacks, enforcing the
// structural rules of Parse: one root, no mixed content, no character
// data outside the root, balanced tags. Parse itself is a WalkTokens
// client that materializes a Tree; the tuple streamer (internal/tuples)
// is a client that never does, which is what makes constant-memory
// validation of arbitrarily large documents possible.

// DefaultMaxDepth is the element-nesting bound streaming entry points
// apply when the caller does not choose one. Hostile deeply-nested
// input then fails with a DepthError instead of growing state without
// bound.
const DefaultMaxDepth = 10000

// MalformedError reports input rejected by the XML reader or by the
// data model's structural rules (Definition 2: no mixed content, one
// root, element or string content). It wraps the same errors Parse
// returns; test with errors.As.
type MalformedError struct {
	Err error
}

func (e *MalformedError) Error() string { return e.Err.Error() }

// Unwrap returns the underlying cause.
func (e *MalformedError) Unwrap() error { return e.Err }

func malformedf(format string, args ...any) error {
	return &MalformedError{Err: fmt.Errorf("xmltree: "+format, args...)}
}

// DepthError reports element nesting beyond the configured limit.
type DepthError struct {
	Depth, Limit int
}

func (e *DepthError) Error() string {
	return fmt.Sprintf("xmltree: element nesting depth %d exceeds the limit %d", e.Depth, e.Limit)
}

// Attr is one attribute of a streamed element. Attributes are
// delivered in document order with xmlns declarations removed;
// repeated names are delivered as written, and consumers that want
// Parse's map semantics must let the last occurrence win.
type Attr struct {
	Name, Value string
}

// TokenCallbacks receives a document as structural events. Any nil
// callback is skipped. Open's attrs slice and Text's byte slice are
// only valid for the duration of the call — the walker reuses both.
// Text is delivered at most once per element, immediately before its
// Close, with all character-data chunks concatenated (whitespace-only
// chunks between elements are dropped, as in Parse). A non-nil error
// from any callback aborts the walk and is returned verbatim.
type TokenCallbacks struct {
	Open  func(label string, attrs []Attr) error
	Text  func(text []byte) error
	Close func(label string) error
}

// WalkTokens streams the XML document from r through cb. It accepts
// exactly the documents Parse accepts and rejects the rest with a
// *MalformedError carrying the same message Parse reports, except that
// a positive maxDepth additionally rejects nesting beyond it with a
// *DepthError (maxDepth <= 0 means unlimited). Memory use is bounded
// by the nesting depth plus the largest single token (text node, name
// or start tag) — nothing proportional to the document is retained.
// Attribute values are fresh strings that callbacks may keep; labels
// are interned.
func WalkTokens(r io.Reader, maxDepth int, cb TokenCallbacks) error {
	s := walkers.Get().(*walker)
	s.r, s.cb, s.maxDepth = r, cb, maxDepth
	s.pos, s.end, s.mark, s.rerr, s.lines = 0, 0, -1, nil, 0
	s.rootSeen, s.pendWin = false, false
	if len(s.names) >= internMaxNames {
		clear(s.names)
	}
	if len(s.xnames) >= internMaxNames {
		clear(s.xnames)
	}
	err := s.walk()
	s.release()
	walkers.Put(s)
	return err
}
