package tuples

// Streaming enumeration of tree tuples. tuples_D(T) is the cross
// product of sibling-group choices, exponential in fan-out; the
// enumerators here walk those choice points by backtracking over ONE
// scratch tuple instead of materializing the product: a compiled
// per-tree plan resolves every path once, and the enumeration itself
// allocates nothing per tuple, so documents far past the MaxTuples
// materialization cap stream in O(|T| + |paths(D)|) additional memory
// regardless of how many maximal tuples they have. The maximal-tuple
// enumeration (Stream) yields tuples in exactly the order of the
// recursive cross product (the slab oracle in the tests); TuplesOf and
// Projector.Of are collectors over these streams.

import (
	"fmt"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/xmltree"
)

// pathValue is one resolved (path ID, value) assignment of a plan node.
type pathValue struct {
	id paths.ID
	v  Value
}

// planNode is one tree node of a compiled enumeration plan: the
// assignments the node itself contributes to a tuple containing it, and
// its sibling-group choice points (one child per group is chosen by
// every tuple that contains the node).
type planNode struct {
	self   []pathValue
	groups [][]*planNode
}

// plan is a compiled enumeration: every path of the walk resolved
// against the universe once, so the backtracking enumeration below runs
// without lookups or allocations.
type plan struct {
	u    *paths.Universe
	root *planNode // nil: the enumeration is empty (e.g. root mismatch)
}

// cont is one suspended choice point of the backtracking enumeration:
// after finishing a child subtree, resume sn's groups at index g, then
// the continuation at next (-1 for "yield"). Lifetimes nest strictly,
// so conts live in a reusable stack slice instead of heap closures.
type cont struct {
	sn   *planNode
	g    int
	next int
}

// stream runs the backtracking enumeration: every complete assignment
// of the plan's choice points is presented to yield as the scratch
// tuple. The scratch is reused across yields — callers that retain a
// tuple must Clone it. yield returning false stops the enumeration;
// stream reports whether it ran to completion.
func (p *plan) stream(yield func(Tuple) bool) bool {
	if p.root == nil {
		return true
	}
	return enumerate(p.root, NewTuple(p.u), yield)
}

// enumerate backtracks over sn's choice points, presenting every
// complete assignment of the subtree through the scratch tuple.
// Assignments already present in the scratch (an ancestor context set
// by the caller, as the token streamer does for the live spine) are
// part of every yielded tuple and are left untouched. Reports whether
// the enumeration ran to completion; every call yields at least one
// tuple unless stopped.
func enumerate(sn *planNode, scratch Tuple, yield func(Tuple) bool) bool {
	conts := make([]cont, 0, 16)
	var visit func(sn *planNode, rest int) bool
	var groupsFrom func(sn *planNode, g, rest int) bool
	groupsFrom = func(sn *planNode, g, rest int) bool {
		if g == len(sn.groups) {
			if rest < 0 {
				return yield(scratch)
			}
			c := conts[rest]
			return groupsFrom(c.sn, c.g, c.next)
		}
		me := len(conts)
		conts = append(conts, cont{sn: sn, g: g + 1, next: rest})
		for _, child := range sn.groups[g] {
			if !visit(child, me) {
				conts = conts[:me]
				return false
			}
		}
		conts = conts[:me]
		return true
	}
	visit = func(sn *planNode, rest int) bool {
		for _, pv := range sn.self {
			scratch.SetID(pv.id, pv.v)
		}
		ok := groupsFrom(sn, 0, rest)
		for _, pv := range sn.self {
			scratch.ClearID(pv.id)
		}
		return ok
	}
	return visit(sn, -1)
}

// compileTree builds the maximal-tuple plan of a tree against a path
// universe: every node contributes its vertex, attributes and text;
// every label group is a choice point. Tree paths outside the universe
// are an error.
func compileTree(u *paths.Universe, t *xmltree.Tree) (*plan, error) {
	rootID, ok := u.LookupString(t.Root.Label)
	if !ok {
		return nil, fmt.Errorf("tuples: root %q is not in the path universe", t.Root.Label)
	}
	var build func(n *xmltree.Node, id paths.ID) (*planNode, error)
	build = func(n *xmltree.Node, id paths.ID) (*planNode, error) {
		sn := &planNode{self: make([]pathValue, 0, 1+len(n.Attrs))}
		sn.self = append(sn.self, pathValue{id: id, v: NodeValue(n.ID)})
		for a, v := range n.Attrs {
			aid, ok := u.Child(id, "@"+a)
			if !ok {
				return nil, fmt.Errorf("tuples: %s.@%s is not in the path universe", u.StringOf(id), a)
			}
			sn.self = append(sn.self, pathValue{id: aid, v: StringValue(v)})
		}
		if n.HasText {
			tid, ok := u.Child(id, dtd.TextStep)
			if !ok {
				return nil, fmt.Errorf("tuples: %s.%s is not in the path universe", u.StringOf(id), dtd.TextStep)
			}
			sn.self = append(sn.self, pathValue{id: tid, v: StringValue(n.Text)})
		}
		for _, group := range childGroups(n) {
			cid, ok := u.Child(id, group[0].Label)
			if !ok {
				return nil, fmt.Errorf("tuples: %s.%s is not in the path universe", u.StringOf(id), group[0].Label)
			}
			kids := make([]*planNode, len(group))
			for i, c := range group {
				k, err := build(c, cid)
				if err != nil {
					return nil, err
				}
				kids[i] = k
			}
			sn.groups = append(sn.groups, kids)
		}
		return sn, nil
	}
	root, err := build(t.Root, rootID)
	if err != nil {
		return nil, err
	}
	return &plan{u: u, root: root}, nil
}

// Stream enumerates tuples_D(T) (Definition 6) without materializing
// the cross product: the maximal tuples are presented to yield one at a
// time, in the order TuplesOf returns them, through a single
// scratch tuple that is reused between calls — Clone any tuple you keep
// past the callback. yield returning false stops the enumeration early.
// Unlike TuplesOf there is no tuple-count cap: memory stays
// O(|T| + |paths|) however many maximal tuples the tree has. Tree paths
// outside the universe are an error, reported before the first yield.
func Stream(u *paths.Universe, t *xmltree.Tree, yield func(Tuple) bool) error {
	p, err := compileTree(u, t)
	if err != nil {
		return err
	}
	p.stream(yield)
	return nil
}

// selfValues returns the assignments a node contributes to any
// projected tuple containing it, in plan order (element vertex,
// requested attributes, text).
func (r *relevant) selfValues(n *xmltree.Node) []pathValue {
	var self []pathValue
	if r.wanted != paths.None {
		self = append(self, pathValue{id: r.wanted, v: NodeValue(n.ID)})
	}
	for _, a := range r.attrs {
		if v, ok := n.Attr(a.name); ok {
			self = append(self, pathValue{id: a.id, v: StringValue(v)})
		}
	}
	if r.textID != paths.None && n.HasText {
		self = append(self, pathValue{id: r.textID, v: StringValue(n.Text)})
	}
	return self
}

// buildProj builds the projection plan node for one tree node: only
// requested paths contribute assignments, only relevant labels open
// choice points, and branches with no children of a relevant label are
// ⊥, mirroring Projector.Of.
func (pr *Projector) buildProj(n *xmltree.Node, r *relevant) *planNode {
	sn := &planNode{self: r.selfValues(n)}
	for _, label := range r.kidOrder {
		kr := r.kids[label]
		var kids []*planNode
		for _, c := range n.Children {
			if c.Label == label {
				kids = append(kids, pr.buildProj(c, kr))
			}
		}
		if len(kids) == 0 {
			continue // whole branch is ⊥
		}
		sn.groups = append(sn.groups, kids)
	}
	return sn
}

// compileProj builds the projection plan of a tree against a
// projector's relevant tree. A nil plan root means the enumeration is
// empty (some query path does not start at the tree's root label).
func (pr *Projector) compileProj(t *xmltree.Tree) *plan {
	for _, f := range pr.first {
		if f != t.Root.Label {
			return &plan{u: pr.u}
		}
	}
	return &plan{u: pr.u, root: pr.buildProj(t.Root, pr.rel)}
}

// RootChoiceLabels returns the child labels of the projector's root
// relevant node, in plan order: the top-level sibling-group choice
// points of the projection. Sharded checkers split the enumeration
// across a tree's children of one of these labels; labels absent from
// the list never open a choice point, so sharding on them would be
// pointless. The slice is shared; do not mutate it.
func (pr *Projector) RootChoiceLabels() []string { return pr.rel.kidOrder }

// Stream enumerates the restrictions of the maximal tuples of the tree
// to the projector's paths, streaming them to yield through a reused
// scratch tuple (Clone to retain). It yields nothing when some query
// path does not start at the tree's root label, like Of. Unlike Of the
// stream is NOT deduplicated: a projection is yielded once per group of
// relevant sibling choices that produce it, so consumers aggregating
// into keyed maps (FD checking, redundancy counting) see the same set
// of tuples with harmless repeats, while never paying for the
// materialized product. yield returning false stops the enumeration.
func (pr *Projector) Stream(t *xmltree.Tree, yield func(Tuple) bool) {
	pr.compileProj(t).stream(yield)
}
