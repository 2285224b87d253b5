package xmltree

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// wtFrame is one open element during a walk.
type wtFrame struct {
	label       string
	hasChildren bool
}

// oracleWalkTokens is WalkTokens as it was written over encoding/xml,
// kept verbatim as the differential oracle for the scanner: the fuzz
// and table tests in oracle_parity_test.go require the two to agree on
// acceptance, error text, DepthError values and event sequences.
func oracleWalkTokens(r io.Reader, maxDepth int, cb TokenCallbacks) error {
	dec := xml.NewDecoder(r)
	var stack []wtFrame
	var text []byte  // pending character data of the innermost element
	var attrs []Attr // reused per StartElement
	rootSeen := false
	// flushText delivers and clears the pending character data of the
	// innermost element; Parse's rules guarantee only the innermost
	// open element can be holding text.
	flushText := func() error {
		if len(text) == 0 {
			return nil
		}
		var err error
		if cb.Text != nil {
			err = cb.Text(text)
		}
		text = text[:0]
		return err
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return &MalformedError{Err: fmt.Errorf("xmltree: %v", err)}
		}
		switch t := tok.(type) {
		case xml.StartElement:
			label := elemName(t.Name)
			if len(stack) == 0 {
				if rootSeen {
					return malformedf("multiple root elements")
				}
				rootSeen = true
			} else {
				top := &stack[len(stack)-1]
				if len(text) > 0 {
					return malformedf("mixed content under <%s>", top.label)
				}
				top.hasChildren = true
			}
			if maxDepth > 0 && len(stack)+1 > maxDepth {
				return &DepthError{Depth: len(stack) + 1, Limit: maxDepth}
			}
			attrs = attrs[:0]
			for _, a := range t.Attr {
				name := elemName(a.Name)
				if name == "xmlns" || strings.HasPrefix(name, "xmlns:") {
					continue
				}
				attrs = append(attrs, Attr{Name: name, Value: a.Value})
			}
			if cb.Open != nil {
				if err := cb.Open(label, attrs); err != nil {
					return err
				}
			}
			stack = append(stack, wtFrame{label: label})
		case xml.EndElement:
			if len(stack) == 0 {
				// Unreachable with encoding/xml's strict decoder, which
				// reports stray end tags itself; kept as a defensive rule.
				return malformedf("unbalanced end tag </%s>", elemName(t.Name))
			}
			if err := flushText(); err != nil {
				return err
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if cb.Close != nil {
				if err := cb.Close(top.label); err != nil {
					return err
				}
			}
		case xml.CharData:
			if len(bytes.TrimSpace(t)) == 0 {
				continue
			}
			if len(stack) == 0 {
				return malformedf("character data outside the root element")
			}
			top := &stack[len(stack)-1]
			if top.hasChildren {
				return malformedf("mixed content under <%s>", top.label)
			}
			text = append(text, t...)
		case xml.Comment, xml.ProcInst, xml.Directive:
			// Ignored.
		}
	}
	if !rootSeen {
		return malformedf("no root element")
	}
	if len(stack) != 0 {
		return malformedf("unbalanced document")
	}
	return nil
}

func elemName(n xml.Name) string {
	if n.Space != "" {
		return n.Space + ":" + n.Local
	}
	return n.Local
}
