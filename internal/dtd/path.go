package dtd

import (
	"fmt"
	"strings"
)

// Path is a path in a DTD (or an XML tree): a sequence of steps starting
// at the root element type. A step is an element type name, an attribute
// step "@name", or the reserved text step "S". Paths print and parse in
// the paper's dotted notation, e.g.
//
//	courses.course.taken_by.student.@sno
type Path []string

// ParsePath parses dotted path notation.
func ParsePath(s string) (Path, error) {
	if s == "" {
		return nil, fmt.Errorf("dtd: empty path")
	}
	steps := strings.Split(s, ".")
	if strings.HasPrefix(steps[0], "@") || steps[0] == TextStep {
		return nil, fmt.Errorf("dtd: path %q must start with an element step", s)
	}
	for i, st := range steps {
		if st == "" {
			return nil, fmt.Errorf("dtd: path %q has an empty step", s)
		}
		if strings.HasPrefix(st, "@") {
			if i != len(steps)-1 {
				return nil, fmt.Errorf("dtd: path %q: attribute step %q must be last", s, st)
			}
			if len(st) == 1 {
				return nil, fmt.Errorf("dtd: path %q: empty attribute name", s)
			}
		}
		if st == TextStep && i != len(steps)-1 {
			return nil, fmt.Errorf("dtd: path %q: text step must be last", s)
		}
	}
	return Path(steps), nil
}

// MustParsePath is ParsePath that panics on error; for tests and
// literals.
func MustParsePath(s string) Path {
	p, err := ParsePath(s)
	if err != nil {
		panic(err)
	}
	return p
}

// String renders the path in dotted notation.
func (p Path) String() string { return strings.Join(p, ".") }

// Len returns the paper's length(w): the number of steps.
func (p Path) Len() int { return len(p) }

// Last returns the paper's last(w): the final step.
func (p Path) Last() string { return p[len(p)-1] }

// IsAttr reports whether the path ends in an attribute step.
func (p Path) IsAttr() bool { return strings.HasPrefix(p.Last(), "@") }

// IsText reports whether the path ends in the text step S.
func (p Path) IsText() bool { return p.Last() == TextStep }

// IsElem reports whether the path is in EPaths(D): it ends with an
// element type.
func (p Path) IsElem() bool { return !p.IsAttr() && !p.IsText() }

// Parent returns the path with the last step removed, or nil for a
// single-step path.
func (p Path) Parent() Path {
	if len(p) <= 1 {
		return nil
	}
	return p[:len(p)-1]
}

// Child returns the path extended by one step.
func (p Path) Child(step string) Path {
	out := make(Path, len(p)+1)
	copy(out, p)
	out[len(p)] = step
	return out
}

// HasPrefix reports whether prefix is a (not necessarily proper) prefix
// of p.
func (p Path) HasPrefix(prefix Path) bool {
	if len(prefix) > len(p) {
		return false
	}
	for i := range prefix {
		if p[i] != prefix[i] {
			return false
		}
	}
	return true
}

// Equal reports step-wise equality.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of p.
func (p Path) Clone() Path { return append(Path(nil), p...) }

// IsPath reports whether p is in paths(D) (Definition 1's notion): each
// step is a letter of the previous element's content model, and the last
// step may also be an attribute of the previous element or the text step
// when the previous element has string content.
func (d *DTD) IsPath(p Path) bool {
	if len(p) == 0 || p[0] != d.root {
		return false
	}
	elem := d.elems[d.root]
	if elem == nil {
		return false
	}
	for i := 1; i < len(p); i++ {
		step := p[i]
		last := i == len(p)-1
		if strings.HasPrefix(step, "@") {
			return last && elem.HasAttr(step[1:])
		}
		if step == TextStep {
			return last && elem.Kind == TextContent
		}
		if elem.Kind != ModelContent || !elem.Model.HasLetter(step) {
			return false
		}
		elem = d.elems[step]
		if elem == nil {
			return false
		}
	}
	return true
}

// IsRecursive reports whether paths(D) is infinite, i.e. some element
// type reachable from the root can reach itself through content models.
func (d *DTD) IsRecursive() bool {
	// Colors: 0 unvisited, 1 on stack, 2 done.
	color := map[string]uint8{}
	var visit func(name string) bool
	visit = func(name string) bool {
		switch color[name] {
		case 1:
			return true
		case 2:
			return false
		}
		color[name] = 1
		if e := d.elems[name]; e != nil && e.Kind == ModelContent {
			for _, a := range e.Model.Alphabet() {
				if visit(a) {
					return true
				}
			}
		}
		color[name] = 2
		return false
	}
	return visit(d.root)
}

// Paths enumerates paths(D) for a non-recursive DTD, in breadth-first
// order (parents before children). It returns an error if the DTD is
// recursive; use PathsBounded to enumerate a finite prefix in that case.
func (d *DTD) Paths() ([]Path, error) {
	if d.IsRecursive() {
		return nil, fmt.Errorf("dtd: paths(D) is infinite: DTD is recursive")
	}
	return d.PathsBounded(0), nil
}

// PathsBounded enumerates the paths of length ≤ maxLen (0 means no
// bound, valid only for non-recursive DTDs).
func (d *DTD) PathsBounded(maxLen int) []Path {
	var out []Path
	if d.elems[d.root] == nil {
		return nil
	}
	queue := []Path{{d.root}}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		out = append(out, p)
		if maxLen > 0 && len(p) >= maxLen {
			continue
		}
		e := d.elems[p.Last()]
		if e == nil {
			continue
		}
		for _, a := range e.Attrs {
			out = append(out, p.Child("@"+a))
		}
		switch e.Kind {
		case TextContent:
			out = append(out, p.Child(TextStep))
		case ModelContent:
			for _, child := range e.Model.Alphabet() {
				queue = append(queue, p.Child(child))
			}
		}
	}
	return out
}

// EPaths enumerates EPaths(D): the element-ended paths.
func (d *DTD) EPaths() ([]Path, error) {
	all, err := d.Paths()
	if err != nil {
		return nil, err
	}
	out := all[:0:0]
	for _, p := range all {
		if p.IsElem() {
			out = append(out, p)
		}
	}
	return out, nil
}
