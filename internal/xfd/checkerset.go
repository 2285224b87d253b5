package xfd

// CheckerSet decides T ⊨ Σ for a whole FD set in a minimal number of
// streaming tree walks. A CheckerSet partitions Σ into clusters of FDs
// whose paths share document branches (connected components over
// common second path steps), compiles one union projection per
// cluster, streams its tuples once (tuples.Projector.Stream — no cross
// product, no MaxTuples ceiling), and folds every tuple into one
// LHS-keyed group map per FD, short-circuiting each FD at its first
// conflict and each walk once all of its FDs are decided. Overlapping
// FDs (the common case: a spec's dependencies concentrate on a few
// subtrees) are thus decided in ONE walk, while FDs over disjoint
// branches keep separate projections — a union projection across
// disjoint branches would multiply their choice points instead of
// adding them.
//
// Two folds do all the deciding. The witness fold (clusterFold) keeps
// a clone of each group's first tuple so a conflict comes with its
// witness pair; Check, the per-FD Checker, CheckReader and
// WitnessReport drive it. The verdict fold (fdFold in fragment.go)
// keeps only byte keys and merges; FoldState, the sharded check and
// the distributed coordinator drive it, and every one of them that
// needs a report hands its verdict to WitnessReport.

import (
	"context"
	"fmt"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/pool"
	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xmltree"
)

// compiledFD is one FD of the set with its sides pre-resolved to path
// IDs and its common root label (the shared first step of all its
// paths; "" when the first steps are mixed, which makes the FD
// trivially satisfied on every document — no tree has two root labels,
// so its projection is always empty).
type compiledFD struct {
	fd    FD
	paths []dtd.Path // fd.Paths(), computed once
	lhs   []paths.ID
	rhs   []paths.ID
	root  string
}

// cluster bundles FDs with a common root label whose paths are
// connected through shared second steps, plus the union projector that
// feeds all of them. A document with that root label is checked
// against the cluster in a single stream; on any other document the
// cluster's FDs are vacuously satisfied.
type cluster struct {
	label string
	pr    *tuples.Projector
	fds   []int // indices into CheckerSet.fds, in Σ order
}

// CheckerSet is a compiled satisfaction check for a whole FD set over
// one path universe. Build once, reuse across trees: a CheckerSet is
// read-only after construction and safe for concurrent use.
type CheckerSet struct {
	fds      []compiledFD
	clusters []cluster
	// elemSides reports whether any FD side mentions an element-valued
	// path — only then does FoldFragment need a positional address
	// table (fragment.go); attribute/text-only sets fold with zero
	// addressing overhead.
	elemSides bool
}

// NewCheckerSet compiles sigma against the universe. Every path of
// every FD must be interned in the universe.
func NewCheckerSet(u *paths.Universe, sigma []FD) (*CheckerSet, error) {
	cs := &CheckerSet{fds: make([]compiledFD, 0, len(sigma))}
	for _, f := range sigma {
		cf := compiledFD{fd: f, paths: f.Paths()}
		for i, p := range cf.paths {
			if i == 0 {
				cf.root = p[0]
			} else if p[0] != cf.root {
				cf.root = "" // mixed first steps: trivially satisfied
				break
			}
		}
		if cf.root != "" {
			for _, p := range f.LHS {
				id, ok := u.Lookup(p)
				if !ok {
					return nil, fmt.Errorf("xfd: %s: %q is not in the path universe", f, p)
				}
				cf.lhs = append(cf.lhs, id)
			}
			for _, p := range f.RHS {
				id, ok := u.Lookup(p)
				if !ok {
					return nil, fmt.Errorf("xfd: %s: %q is not in the path universe", f, p)
				}
				cf.rhs = append(cf.rhs, id)
			}
			for _, ids := range [][]paths.ID{cf.lhs, cf.rhs} {
				for _, id := range ids {
					if u.Info(id).Kind == paths.ElemKind {
						cs.elemSides = true
					}
				}
			}
		}
		cs.fds = append(cs.fds, cf)
	}
	if err := cs.buildClusters(u); err != nil {
		return nil, err
	}
	return cs, nil
}

// buildClusters partitions the applicable FDs into connected
// components: two FDs land in one cluster iff they have the same root
// label and their path sets are linked (transitively) through a shared
// second step. Sharing any deeper branch implies sharing the whole
// prefix including the second step, so second-step components are
// exactly the FD groups whose union projection opens no choice point
// that only one side needs.
func (cs *CheckerSet) buildClusters(u *paths.Universe) error {
	parent := make([]int, len(cs.fds))
	for i := range parent {
		parent[i] = i
	}
	var find func(i int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) {
		if ra, rb := find(a), find(b); ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra // lowest Σ index wins: deterministic order
		}
	}
	bySecond := map[[2]string]int{} // (root label, second step) -> first FD index
	for i := range cs.fds {
		cf := &cs.fds[i]
		if cf.root == "" {
			continue
		}
		for _, p := range cf.paths {
			if len(p) < 2 {
				continue
			}
			key := [2]string{cf.root, p[1]}
			if first, ok := bySecond[key]; ok {
				union(i, first)
			} else {
				bySecond[key] = i
			}
		}
	}
	clusterOf := map[int]int{} // representative FD index -> cluster index
	unionPaths := map[int][]dtd.Path{}
	seen := map[int]map[string]bool{}
	for i := range cs.fds {
		cf := &cs.fds[i]
		if cf.root == "" {
			continue
		}
		r := find(i)
		ci, ok := clusterOf[r]
		if !ok {
			ci = len(cs.clusters)
			clusterOf[r] = ci
			cs.clusters = append(cs.clusters, cluster{label: cf.root})
			seen[ci] = map[string]bool{}
		}
		cs.clusters[ci].fds = append(cs.clusters[ci].fds, i)
		for _, p := range cf.paths {
			s := p.String()
			if !seen[ci][s] {
				seen[ci][s] = true
				unionPaths[ci] = append(unionPaths[ci], p)
			}
		}
	}
	for ci := range cs.clusters {
		pr, err := tuples.NewProjector(u, unionPaths[ci])
		if err != nil {
			return fmt.Errorf("xfd: checker set: %v", err)
		}
		cs.clusters[ci].pr = pr
	}
	return nil
}

// Len returns the number of FDs in the set.
func (cs *CheckerSet) Len() int { return len(cs.fds) }

// FDAt returns the i-th compiled dependency (Σ order).
func (cs *CheckerSet) FDAt(i int) FD { return cs.fds[i].fd }

// Check decides every FD of the set against the document, one
// streaming walk per cluster of branch-sharing FDs (a single walk when
// all of Σ overlaps). Each violated FD is reported exactly once
// through onViolation with its index into the set (Σ order) and a
// witness pair of projected tuples that agree on the FD's LHS
// (non-null) but differ on its RHS — the first such conflict in
// enumeration order. Violations are reported in discovery order, which
// interleaves FDs; onViolation returning false aborts the whole check
// (remaining FDs stay unreported). onViolation may be nil. Each walk
// short-circuits as soon as all of its cluster's FDs are decided.
func (cs *CheckerSet) Check(t *xmltree.Tree, onViolation func(i int, witness [2]tuples.Tuple) bool) {
	cs.check(t, nil, onViolation)
}

// check is Check restricted to the FD indices in only (nil: all of
// them); clusters holding none of those FDs are not walked.
func (cs *CheckerSet) check(t *xmltree.Tree, only map[int]bool, onViolation func(i int, witness [2]tuples.Tuple) bool) {
	aborted := false
	for ci := range cs.clusters {
		cl := &cs.clusters[ci]
		if cl.label != t.Root.Label {
			continue
		}
		if fold := cs.clusterFold(cl, only, &aborted, onViolation); fold != nil {
			cl.pr.Stream(t, fold)
		}
		if aborted {
			return
		}
	}
}

// clusterFold is the witness fold: the per-tuple step that decides the
// FDs of one cluster, as a yield callback for the cluster's tree or
// token stream. Per FD it maps each LHS key to a clone of the group's
// first tuple (the stream reuses its scratch tuple) and reports the
// first tuple whose RHS disagrees with that representative, together
// with it, as the witness pair. A non-nil only restricts the fold to
// those FD indices; clusterFold returns nil when that leaves nothing
// to decide. The shared aborted flag carries an onViolation abort
// across every cluster of one check.
func (cs *CheckerSet) clusterFold(cl *cluster, only map[int]bool, aborted *bool, onViolation func(i int, witness [2]tuples.Tuple) bool) func(tuples.Tuple) bool {
	type fdState struct {
		groups   map[string]tuples.Tuple // LHS key -> first tuple of the group (cloned)
		violated bool
	}
	states := make([]fdState, len(cl.fds))
	remaining := 0
	for li, fi := range cl.fds {
		if only != nil && !only[fi] {
			states[li].violated = true // excluded: decided up front
			continue
		}
		states[li].groups = make(map[string]tuples.Tuple)
		remaining++
	}
	if remaining == 0 {
		return nil
	}
	var buf []byte
	return func(tup tuples.Tuple) bool {
		if *aborted {
			return false
		}
		for li, fi := range cl.fds {
			st := &states[li]
			if st.violated {
				continue
			}
			cf := &cs.fds[fi]
			key, applies := appendKey(buf[:0], tup, cf.lhs, nil)
			buf = key
			if !applies {
				continue // some LHS value is ⊥: the FD does not apply
			}
			first, seen := st.groups[string(key)]
			if !seen {
				st.groups[string(key)] = tup.Clone()
				continue
			}
			if sameRHS(first, tup, cf.rhs) {
				continue
			}
			st.violated, st.groups = true, nil // dead once violated: free it mid-walk
			remaining--
			if onViolation != nil && !onViolation(fi, [2]tuples.Tuple{first, tup.Clone()}) {
				*aborted = true
				return false
			}
		}
		return remaining > 0
	}
}

// SatisfiesAll checks T ⊨ Σ, stopping at the first violation.
func (cs *CheckerSet) SatisfiesAll(t *xmltree.Tree) bool {
	ok := true
	cs.Check(t, func(int, [2]tuples.Tuple) bool {
		ok = false
		return false
	})
	return ok
}

// Violations checks every FD and returns the violated ones with
// witnesses, in Σ order. A valid document yields nil.
func (cs *CheckerSet) Violations(t *xmltree.Tree) []Violated {
	witnesses := make(map[int][2]tuples.Tuple)
	cs.Check(t, func(i int, w [2]tuples.Tuple) bool {
		witnesses[i] = w
		return true
	})
	return cs.report(witnesses)
}

func (cs *CheckerSet) report(witnesses map[int][2]tuples.Tuple) []Violated {
	var out []Violated
	for i := range cs.fds {
		if w, ok := witnesses[i]; ok {
			out = append(out, Violated{FD: cs.fds[i].fd, Witness: w})
		}
	}
	return out
}

// violatedSharded collects the violated FD indices: SplitFragments
// deals the document into up to workers fragments, each is folded into
// its own FoldState on the worker pool, and the merged state's verdict
// is the whole document's. All fragments share the document's nodes,
// so the folds key vertices by NodeID and skip the positional
// addressing a state shipped between processes needs. A cancelled ctx
// stops handing out fragments and surfaces as the context's error.
func (cs *CheckerSet) violatedSharded(ctx context.Context, t *xmltree.Tree, workers int) (map[int]bool, error) {
	frags := cs.SplitFragments(t, workers)
	states := make([]*FoldState, len(frags))
	err := pool.ForEachCtx(ctx, workers, len(frags), func(i int) error {
		states[i] = cs.NewFoldState()
		states[i].fold(frags[i], nil)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, st := range states[1:] {
		if err := states[0].Merge(st); err != nil {
			return nil, err
		}
	}
	return states[0].ViolatedSet(), nil
}

// SatisfiesAllSharded is SatisfiesAll with the verdict pass fanned out
// over up to workers fragments of the document (see SplitFragments;
// workers <= 1, or a document with nothing to split, folds it whole).
// The verdict is identical to SatisfiesAll's.
func (cs *CheckerSet) SatisfiesAllSharded(t *xmltree.Tree, workers int) bool {
	ok, _ := cs.SatisfiesAllShardedCtx(context.Background(), t, workers)
	return ok
}

// SatisfiesAllShardedCtx is SatisfiesAllSharded under a context: a
// cancellation aborts the remaining fragments promptly and returns the
// context's error (the verdict is then meaningless).
func (cs *CheckerSet) SatisfiesAllShardedCtx(ctx context.Context, t *xmltree.Tree, workers int) (bool, error) {
	bad, err := cs.violatedSharded(ctx, t, workers)
	if err != nil {
		return false, err
	}
	return len(bad) == 0, nil
}

// ViolationsSharded is Violations with the verdict pass sharded across
// up to workers goroutines. Witnesses are then re-derived by
// sequential streams restricted to the violated FDs, so the report —
// witnesses included — is identical to Violations' regardless of
// worker count or scheduling. Documents that satisfy Σ
// (the common case) never pay for the witness pass.
func (cs *CheckerSet) ViolationsSharded(t *xmltree.Tree, workers int) []Violated {
	out, _ := cs.ViolationsShardedCtx(context.Background(), t, workers)
	return out
}

// ViolationsShardedCtx is ViolationsSharded under a context, the form
// a server uses so shutdown and per-request deadlines stop in-flight
// checks: once ctx is cancelled, no further fragment is started and the
// context's error is returned with a nil report.
func (cs *CheckerSet) ViolationsShardedCtx(ctx context.Context, t *xmltree.Tree, workers int) ([]Violated, error) {
	bad, err := cs.violatedSharded(ctx, t, workers)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return cs.WitnessReport(t, bad), nil
}
