package xfd

// Exported fold/unfold hooks for the incremental checking engine
// (internal/incremental). A CheckerSet compiles Σ into clusters, each
// with a union projector and per-FD (LHS, RHS) path-ID sides; the
// folds decide each FD by grouping projection streams on LHS keys. The
// incremental Session maintains such group maps with reference counts
// across edits, so it needs the cluster layout, the projectors (to run
// pinned delta streams), and the fold-key encoding (AppendFoldKeys,
// the one the verdict fold uses). Its verdicts then go through
// WitnessReport, which re-derives witnesses with the same witness fold
// Violations runs, so its reports are bit-identical to Violations.

import (
	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xmltree"
)

// NumClusters returns the number of FD clusters the set compiled to.
func (cs *CheckerSet) NumClusters() int { return len(cs.clusters) }

// ClusterLabel returns the root label cluster ci applies to: on
// documents with any other root label, all of the cluster's FDs are
// vacuously satisfied.
func (cs *CheckerSet) ClusterLabel(ci int) string { return cs.clusters[ci].label }

// ClusterFDs returns the indices (into Σ order, as FDAt addresses
// them) of the FDs decided by cluster ci's stream. The slice is
// shared; do not mutate it.
func (cs *CheckerSet) ClusterFDs(ci int) []int { return cs.clusters[ci].fds }

// ClusterProjector returns the union projector feeding cluster ci —
// the one whose Stream (and StreamPinned) enumerates the tuples every
// FD of the cluster is folded over.
func (cs *CheckerSet) ClusterProjector(ci int) *tuples.Projector { return cs.clusters[ci].pr }

// AppendFoldKeys computes the group-map keys of one projected tuple
// under FD fi (Σ index): the LHS key the fold groups by and an RHS key
// that is equal between two tuples of a group exactly when their RHS
// values agree (⊥ = ⊥ included) — i.e. grouping refcounts by (LHS
// key, RHS key) counts RHS equivalence classes, and an LHS group
// violates the FD iff it holds two distinct RHS keys. Vertices are keyed by
// NodeID, so keys compare only within one process. applies is false
// when some LHS value is ⊥ (the FD does not constrain the tuple; key
// contents are then unspecified). Keys are appended to the dst slices
// (pass buf[:0] to reuse); the returned slices alias them.
func (cs *CheckerSet) AppendFoldKeys(tup tuples.Tuple, fi int, lhsDst, rhsDst []byte) (lhsK, rhsK []byte, applies bool) {
	return cs.foldKeys(tup, fi, nil, lhsDst, rhsDst)
}

// WitnessReport re-derives the violation report for a known verdict:
// given the set of violated FD indices, it runs the witness fold
// (clusterFold) over one stream per applicable cluster holding a
// violated FD, restricted to those FDs, and returns the same
// []Violated — first-conflict witnesses in Σ order — that Violations
// would produce on the document. This is how the sharded checker, the
// fragment and distributed folds and the incremental Session turn a
// cheap verdict into the canonical report; a nil/empty bad set returns
// nil without walking anything.
func (cs *CheckerSet) WitnessReport(t *xmltree.Tree, bad map[int]bool) []Violated {
	if len(bad) == 0 {
		return nil
	}
	witnesses := make(map[int][2]tuples.Tuple, len(bad))
	cs.check(t, bad, func(i int, w [2]tuples.Tuple) bool {
		witnesses[i] = w
		return true
	})
	return cs.report(witnesses)
}
