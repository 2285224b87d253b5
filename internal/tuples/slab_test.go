package tuples

// The slab cross product: the recursive materializing enumeration of
// tuples_D(T), kept as the differential oracle the streaming
// enumerators (Stream, TokenStream, StreamPinned, and TuplesOf, which
// collects Stream) are compared against. It shares nothing with the
// backtracking plan but the Tuple type and childGroups, so a plan or
// continuation bug cannot hide in both.

import (
	"fmt"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/xmltree"
)

// SlabTuplesOf exports the oracle to the external test package.
var SlabTuplesOf = slabTuplesOf

// slabTuplesOf computes tuples_D(T) as the cross product of every
// node's sibling-group alternatives, in Stream's order, erroring on
// tree paths outside the universe. It has no tuple-count cap; callers
// keep their trees small.
func slabTuplesOf(u *paths.Universe, t *xmltree.Tree) ([]Tuple, error) {
	rootID, ok := u.LookupString(t.Root.Label)
	if !ok {
		return nil, fmt.Errorf("tuples: root %q is not in the path universe", t.Root.Label)
	}
	var enum func(n *xmltree.Node, id paths.ID) ([]Tuple, error)
	enum = func(n *xmltree.Node, id paths.ID) ([]Tuple, error) {
		base := NewTuple(u)
		base.SetID(id, NodeValue(n.ID))
		for a, v := range n.Attrs {
			aid, ok := u.Child(id, "@"+a)
			if !ok {
				return nil, fmt.Errorf("tuples: %s.@%s is not in the path universe", u.StringOf(id), a)
			}
			base.SetID(aid, StringValue(v))
		}
		if n.HasText {
			tid, ok := u.Child(id, dtd.TextStep)
			if !ok {
				return nil, fmt.Errorf("tuples: %s.%s is not in the path universe", u.StringOf(id), dtd.TextStep)
			}
			base.SetID(tid, StringValue(n.Text))
		}
		acc := []Tuple{base}
		for _, group := range childGroups(n) {
			cid, ok := u.Child(id, group[0].Label)
			if !ok {
				return nil, fmt.Errorf("tuples: %s.%s is not in the path universe", u.StringOf(id), group[0].Label)
			}
			var alts []Tuple
			for _, c := range group {
				sub, err := enum(c, cid)
				if err != nil {
					return nil, err
				}
				alts = append(alts, sub...)
			}
			// Cross product: extend every accumulated tuple with every
			// alternative for this label. The bitsets and value slices of
			// the whole product are carved out of two slab allocations —
			// the capacities are clamped, so a later grow can never bleed
			// into a neighbouring tuple.
			size, words := u.Size(), len(base.set)
			total := len(acc) * len(alts)
			valsArena := make([]Value, total*size)
			setArena := make([]uint64, total*words)
			next := make([]Tuple, 0, total)
			k := 0
			for _, t := range acc {
				for _, a := range alts {
					vals := valsArena[k*size : (k+1)*size : (k+1)*size]
					set := paths.Set(setArena[k*words : (k+1)*words : (k+1)*words])
					copy(vals, t.vals)
					copy(set, t.set)
					a.set.ForEach(func(id paths.ID) { vals[id] = a.vals[id] })
					for i := range a.set {
						set[i] |= a.set[i]
					}
					next = append(next, Tuple{u: u, set: set, vals: vals})
					k++
				}
			}
			acc = next
		}
		return acc, nil
	}
	return enum(t.Root, rootID)
}
