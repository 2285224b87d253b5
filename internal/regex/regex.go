// Package regex implements regular expressions over alphabets of XML
// element names, as used in DTD content models (Definition 1 of Arenas &
// Libkin, "A Normal Form for XML Documents", PODS 2002).
//
// The expressions are
//
//	α ::= ε | τ | α|α | α,α | α* | α+ | α?
//
// where τ ranges over element names. The package provides parsing from
// the DTD content-model syntax, NFA-based membership testing, per-letter
// multiplicity analysis, and the structural classifications from Section
// 7 of the paper: trivial expressions, simple expressions, and simple
// disjunctions.
package regex

import (
	"fmt"
	"sort"
	"strings"
)

// Kind identifies the shape of an expression node.
type Kind uint8

// Expression kinds.
const (
	KindEmpty  Kind = iota // ε, the empty word
	KindLetter             // a single element name
	KindConcat             // α1, α2, ..., αn
	KindUnion              // α1 | α2 | ... | αn
	KindStar               // α*
	KindPlus               // α+
	KindOpt                // α?
)

// Expr is a node of a regular-expression syntax tree. Expressions are
// immutable after construction; all analysis functions treat them as
// values.
type Expr struct {
	Kind Kind
	Name string  // letter name, for KindLetter
	Subs []*Expr // children, for KindConcat and KindUnion
	Sub  *Expr   // child, for KindStar, KindPlus, KindOpt
}

// Empty returns the expression denoting {ε}.
func Empty() *Expr { return &Expr{Kind: KindEmpty} }

// Letter returns the expression denoting the one-letter word name.
func Letter(name string) *Expr { return &Expr{Kind: KindLetter, Name: name} }

// Concat returns the concatenation of subs. Zero arguments yield ε; a
// single argument is returned unchanged.
func Concat(subs ...*Expr) *Expr {
	switch len(subs) {
	case 0:
		return Empty()
	case 1:
		return subs[0]
	}
	return &Expr{Kind: KindConcat, Subs: subs}
}

// Union returns the union of subs. Zero arguments yield ε; a single
// argument is returned unchanged.
func Union(subs ...*Expr) *Expr {
	switch len(subs) {
	case 0:
		return Empty()
	case 1:
		return subs[0]
	}
	return &Expr{Kind: KindUnion, Subs: subs}
}

// Star returns sub*.
func Star(sub *Expr) *Expr { return &Expr{Kind: KindStar, Sub: sub} }

// Plus returns sub+.
func Plus(sub *Expr) *Expr { return &Expr{Kind: KindPlus, Sub: sub} }

// Opt returns sub? (that is, sub|ε).
func Opt(sub *Expr) *Expr { return &Expr{Kind: KindOpt, Sub: sub} }

// String renders the expression in DTD content-model syntax. Groups are
// parenthesized conservatively so the output always re-parses to an
// equivalent expression.
func (e *Expr) String() string {
	var b strings.Builder
	e.write(&b, false)
	return b.String()
}

// write renders e. If atom is true, the output is parenthesized whenever
// it is not a single token, so a postfix operator can be attached.
func (e *Expr) write(b *strings.Builder, atom bool) {
	switch e.Kind {
	case KindEmpty:
		// DTD syntax has no literal ε token; EMPTY content is handled at
		// the DTD level. Inside expressions we print it as "()" which our
		// parser accepts back.
		b.WriteString("()")
	case KindLetter:
		b.WriteString(e.Name)
	case KindConcat, KindUnion:
		sep := ","
		if e.Kind == KindUnion {
			sep = "|"
		}
		if atom {
			b.WriteByte('(')
		}
		for i, s := range e.Subs {
			if i > 0 {
				b.WriteString(sep)
			}
			s.write(b, true)
		}
		if atom {
			b.WriteByte(')')
		}
	case KindStar:
		e.Sub.write(b, true)
		b.WriteByte('*')
	case KindPlus:
		e.Sub.write(b, true)
		b.WriteByte('+')
	case KindOpt:
		e.Sub.write(b, true)
		b.WriteByte('?')
	default:
		panic(fmt.Sprintf("regex: unknown kind %d", e.Kind))
	}
}

// Alphabet returns the sorted set of letters occurring in e.
func (e *Expr) Alphabet() []string {
	set := map[string]bool{}
	e.collectAlphabet(set)
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

func (e *Expr) collectAlphabet(set map[string]bool) {
	switch e.Kind {
	case KindLetter:
		set[e.Name] = true
	case KindConcat, KindUnion:
		for _, s := range e.Subs {
			s.collectAlphabet(set)
		}
	case KindStar, KindPlus, KindOpt:
		e.Sub.collectAlphabet(set)
	}
}

// HasLetter reports whether name is in e's alphabet, walking the
// expression without building the alphabet.
func (e *Expr) HasLetter(name string) bool {
	switch e.Kind {
	case KindLetter:
		return e.Name == name
	case KindConcat, KindUnion:
		for _, s := range e.Subs {
			if s.HasLetter(name) {
				return true
			}
		}
	case KindStar, KindPlus, KindOpt:
		return e.Sub.HasLetter(name)
	}
	return false
}

// Nullable reports whether ε is in the language of e.
func (e *Expr) Nullable() bool {
	switch e.Kind {
	case KindEmpty:
		return true
	case KindLetter:
		return false
	case KindConcat:
		for _, s := range e.Subs {
			if !s.Nullable() {
				return false
			}
		}
		return true
	case KindUnion:
		for _, s := range e.Subs {
			if s.Nullable() {
				return true
			}
		}
		return false
	case KindStar, KindOpt:
		return true
	case KindPlus:
		return e.Sub.Nullable()
	default:
		panic("regex: unknown kind")
	}
}

// MinWord returns a shortest word in the language of e. It is used to
// synthesize minimal conforming documents.
func (e *Expr) MinWord() []string {
	switch e.Kind {
	case KindEmpty, KindStar, KindOpt:
		if e.Kind == KindEmpty {
			return nil
		}
		return nil
	case KindLetter:
		return []string{e.Name}
	case KindConcat:
		var out []string
		for _, s := range e.Subs {
			out = append(out, s.MinWord()...)
		}
		return out
	case KindUnion:
		best := e.Subs[0].MinWord()
		for _, s := range e.Subs[1:] {
			if w := s.MinWord(); len(w) < len(best) {
				best = w
			}
		}
		return best
	case KindPlus:
		return e.Sub.MinWord()
	default:
		panic("regex: unknown kind")
	}
}

// Equal reports structural equality of two expressions.
func Equal(a, b *Expr) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || a.Name != b.Name || len(a.Subs) != len(b.Subs) {
		return false
	}
	for i := range a.Subs {
		if !Equal(a.Subs[i], b.Subs[i]) {
			return false
		}
	}
	if (a.Sub == nil) != (b.Sub == nil) {
		return false
	}
	if a.Sub != nil {
		return Equal(a.Sub, b.Sub)
	}
	return true
}

// Clone returns a deep copy of e.
func (e *Expr) Clone() *Expr {
	if e == nil {
		return nil
	}
	c := &Expr{Kind: e.Kind, Name: e.Name}
	if e.Sub != nil {
		c.Sub = e.Sub.Clone()
	}
	if e.Subs != nil {
		c.Subs = make([]*Expr, len(e.Subs))
		for i, s := range e.Subs {
			c.Subs[i] = s.Clone()
		}
	}
	return c
}
