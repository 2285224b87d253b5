package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"xmlnorm"
	"xmlnorm/internal/gen"
	"xmlnorm/internal/pool"
	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

type bigDriver int

const (
	streamDriver bigDriver = iota
	treeDriver
	fragmentDriver
)

// bigDoc is the large-document path: one generated university
// document (the ROADMAP baseline shape) checked from memory against
// courses.spec by one of three drivers. The document satisfies Σ by
// construction (every student keeps one global name, student numbers
// are distinct within a course, course numbers are distinct), so every
// tuple is folded and nothing short-circuits; the reference report is
// the empty one, and every driver's report must equal it under
// xfd.CanonicalReport.
type bigDoc struct {
	noPhases
	driver   bigDriver
	specText string
	doc      []byte
	sum      string
	tuples   int
	workers  int
	want     string

	sigma []xmlnorm.FD
	cs    *xfd.CheckerSet

	// Counts gathered by traced operations, one entry per operation.
	tokens, streamTuples, foldAllocs, foldBytes, stateBytes []float64
}

func prepareBigDoc(d bigDriver) func(context.Context, config, string) (instance, error) {
	return func(_ context.Context, cfg config, _ string) (instance, error) {
		spec, err := readSpec(cfg, "courses.spec")
		if err != nil {
			return nil, err
		}
		sz := cfg.size
		rng := rand.New(rand.NewSource(cfg.seed))
		tree := gen.University(sz.bigCourses, sz.bigStudents, sz.bigPool, sz.bigNames, rng)
		doc := []byte(tree.String())
		return &bigDoc{
			driver:   d,
			specText: spec,
			doc:      doc,
			sum:      digest([]byte(spec), doc),
			tuples:   tuples.CountTuples(tree, 0),
			workers:  pool.DefaultWorkers(),
			want:     xfd.CanonicalReport(nil),
		}, nil
	}
}

func (b *bigDoc) setup() error {
	spec, err := xmlnorm.ParseSpec(b.specText)
	if err != nil {
		return err
	}
	cs, err := xfd.NewCheckerSetFor(spec.FDs)
	if err != nil {
		return err
	}
	b.sigma, b.cs = spec.FDs, cs
	return nil
}

func (b *bigDoc) fingerprint() []field {
	return []field{
		{"spec", "courses.spec"},
		{"doc_bytes", len(b.doc)},
		{"tuples", b.tuples},
		{"workers", b.workers},
		{"violating_share", 0},
		{"inputs_sha256", b.sum},
	}
}

func (b *bigDoc) op(_ context.Context, tr *tracer) (opResult, error) {
	var (
		report []xfd.Violated
		tree   *xmltree.Tree
		err    error
	)
	drv := tr.begin(driverSpan, -1)
	t0 := time.Now()
	switch b.driver {
	case streamDriver:
		tr.do("xmlnorm.CheckDocumentReader", drv, func() {
			report, err = xmlnorm.CheckDocumentReader(bytes.NewReader(b.doc), b.sigma, xmlnorm.ReaderOptions{})
		})
	case treeDriver:
		tr.do("xmltree.Parse", drv, func() { tree, err = xmlnorm.ParseDocumentReader(bytes.NewReader(b.doc)) })
		if err == nil {
			tr.do("xfd.ViolationsSharded", drv, func() { report = b.cs.ViolationsSharded(tree, b.workers) })
		}
	case fragmentDriver:
		report, err = b.fragmentCheck(tr, drv)
	}
	work := time.Since(t0)
	tr.end(drv)
	if err != nil {
		return opResult{}, err
	}
	r := opResult{work: work, checked: 1}
	if got := xfd.CanonicalReport(report); got != b.want {
		r.failed = 1
		fmt.Fprintf(os.Stderr, "perfbench: big document report %q, want %q\n", got, b.want)
	}
	if tr != nil {
		return r, b.stopAtLayers(tr, tree)
	}
	return r, nil
}

// fragmentCheck is the fragment driver: parse, split into one fragment
// per worker, fold each fragment on the pool, ship every state through
// its binary form as distrib would, merge, and re-derive witnesses for
// the violated FDs.
func (b *bigDoc) fragmentCheck(tr *tracer, parent int) ([]xfd.Violated, error) {
	var (
		tree *xmltree.Tree
		err  error
	)
	tr.do("xmltree.Parse", parent, func() { tree, err = xmlnorm.ParseDocumentReader(bytes.NewReader(b.doc)) })
	if err != nil {
		return nil, err
	}
	var frags []xfd.Fragment
	tr.do("xfd.SplitFragments", parent, func() { frags = b.cs.SplitFragments(tree, b.workers) })
	states := make([]*xfd.FoldState, len(frags))
	fold := tr.begin("xfd.FoldFragment", parent)
	err = pool.ForEach(b.workers, len(frags), func(i int) error {
		id := tr.begin("xfd.FoldFragment.part", fold)
		states[i] = b.cs.NewFoldState()
		states[i].FoldFragment(frags[i])
		tr.end(id)
		return nil
	})
	tr.end(fold)
	if err != nil {
		return nil, err
	}
	wire := make([][]byte, len(states))
	shipped := 0
	tr.do("xfd.MarshalBinary", parent, func() {
		for i, st := range states {
			if wire[i], err = st.MarshalBinary(); err != nil {
				return
			}
			shipped += len(wire[i])
		}
	})
	if err != nil {
		return nil, err
	}
	if tr != nil {
		b.stateBytes = append(b.stateBytes, float64(shipped))
	}
	received := make([]*xfd.FoldState, len(wire))
	tr.do("xfd.UnmarshalFoldState", parent, func() {
		for i, w := range wire {
			if received[i], err = b.cs.UnmarshalFoldState(w); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	tr.do("xfd.Merge", parent, func() {
		for _, st := range received[1:] {
			if err = received[0].Merge(st); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	var report []xfd.Violated
	tr.do("xfd.WitnessReport", parent, func() { report = b.cs.WitnessReport(tree, received[0].ViolatedSet()) })
	return report, nil
}

// stopAtLayers runs the passes that stop at each layer, for the layers
// reached only through callbacks of the layer below: a bare token walk
// (xmltree alone), the walk feeding the clusters' token streams with a
// counting yield (xmltree + tuples), the full CheckReader, and — for
// the tree driver — the clusters' tree streams over the tree the
// driver parsed. The passes run layerReps times, each after a
// collection; self time is found by subtracting one pass's fastest
// repetition from the next one's.
func (b *bigDoc) stopAtLayers(tr *tracer, tree *xmltree.Tree) error {
	var tok, tup int
	var err error
	foldAllocs, foldBytes := -1.0, -1.0
	pass := func(name string, fn func()) bool {
		settle()
		tr.do(name, -1, fn)
		return err == nil
	}
	for rep := 0; rep < layerReps; rep++ {
		if !pass("xmltree.WalkTokens", func() { tok, err = walkBare(bytes.NewReader(b.doc)) }) {
			return err
		}
		switch b.driver {
		case streamDriver:
			c0 := readCounters()
			if !pass("tuples.TokenStream", func() { tup, err = walkStreams(b.cs, bytes.NewReader(b.doc)) }) {
				return err
			}
			c1 := readCounters()
			if !pass("xfd.CheckReader", func() { err = b.cs.CheckReader(bytes.NewReader(b.doc), xfd.ReaderOptions{}, nil) }) {
				return err
			}
			c2 := readCounters()
			enum, full := c1.sub(c0), c2.sub(c1)
			if a := float64(full.allocObjects) - float64(enum.allocObjects); foldAllocs < 0 || a < foldAllocs {
				foldAllocs = a
			}
			if by := float64(full.allocBytes) - float64(enum.allocBytes); foldBytes < 0 || by < foldBytes {
				foldBytes = by
			}
		case treeDriver:
			pass("tuples.Projector.Stream", func() { tup = streamTree(b.cs, tree) })
		}
	}
	b.tokens = append(b.tokens, float64(tok))
	b.streamTuples = append(b.streamTuples, float64(tup))
	if b.driver == streamDriver {
		b.foldAllocs = append(b.foldAllocs, foldAllocs)
		b.foldBytes = append(b.foldBytes, foldBytes)
	}
	return nil
}

func (b *bigDoc) layers(ops []opSpans) map[string]float64 {
	total := func(name string) float64 {
		return spanMedian(ops, func(o opSpans) time.Duration { return o.total[name] })
	}
	fastest := func(name string) float64 {
		return spanMedian(ops, func(o opSpans) time.Duration { return o.min[name] })
	}
	diff := func(a, c string) float64 {
		return spanMedian(ops, func(o opSpans) time.Duration { return o.min[a] - o.min[c] })
	}
	m := map[string]float64{}
	switch b.driver {
	case streamDriver:
		m["xmltree.tokenize_s"] = fastest("xmltree.WalkTokens")
		m["xmltree.tokens"] = medianFloat(b.tokens)
		m["tuples.enumerate_s"] = diff("tuples.TokenStream", "xmltree.WalkTokens")
		m["tuples.tuples"] = medianFloat(b.streamTuples)
		m["xfd.fold_s"] = diff("xfd.CheckReader", "tuples.TokenStream")
		m["xfd.fold_allocs"] = medianFloat(b.foldAllocs)
		m["xfd.fold_alloc_bytes"] = medianFloat(b.foldBytes)
	case treeDriver:
		m["xmltree.tokenize_s"] = fastest("xmltree.WalkTokens")
		m["xmltree.tokens"] = medianFloat(b.tokens)
		m["xmltree.parse_s"] = total("xmltree.Parse")
		m["tuples.tree_stream_s"] = fastest("tuples.Projector.Stream")
		m["tuples.tuples"] = medianFloat(b.streamTuples)
		m["xfd.tree_fold_s"] = total("xfd.ViolationsSharded")
	case fragmentDriver:
		m["xmltree.parse_s"] = total("xmltree.Parse")
		m["xfd.split_s"] = total("xfd.SplitFragments")
		m["xfd.fragment_fold_s"] = total("xfd.FoldFragment")
		m["xfd.marshal_s"] = total("xfd.MarshalBinary")
		m["xfd.unmarshal_s"] = total("xfd.UnmarshalFoldState")
		m["xfd.merge_s"] = total("xfd.Merge")
		m["xfd.state_bytes"] = medianFloat(b.stateBytes)
	}
	return m
}

// walkBare is xmltree alone: a token walk with callbacks that only
// count tokens. It returns the number of Open, Text and Close events.
func walkBare(r io.Reader) (int, error) {
	n := 0
	err := xmltree.WalkTokens(r, xmltree.DefaultMaxDepth, xmltree.TokenCallbacks{
		Open:  func(string, []xmltree.Attr) error { n++; return nil },
		Text:  func([]byte) error { n++; return nil },
		Close: func(string) error { n++; return nil },
	})
	return n, err
}

// walkStreams is CheckReader with the fold removed: the same walk
// multiplexed into the token stream of every cluster whose root label
// matches the document's, each yielding into a counter. It returns the
// number of projected tuples.
func walkStreams(cs *xfd.CheckerSet, r io.Reader) (int, error) {
	n := 0
	count := func(tuples.Tuple) bool { n++; return true }
	var streams []*tuples.TokenStream
	started := false
	err := xmltree.WalkTokens(r, xmltree.DefaultMaxDepth, xmltree.TokenCallbacks{
		Open: func(label string, attrs []xmltree.Attr) error {
			if !started {
				started = true
				for ci := 0; ci < cs.NumClusters(); ci++ {
					if cs.ClusterLabel(ci) == label {
						streams = append(streams, cs.ClusterProjector(ci).StartTokens(count))
					}
				}
			}
			for _, ts := range streams {
				ts.Open(label, attrs)
			}
			return nil
		},
		Text: func(text []byte) error {
			for _, ts := range streams {
				ts.Text(text)
			}
			return nil
		},
		Close: func(string) error {
			for _, ts := range streams {
				ts.Close()
			}
			return nil
		},
	})
	return n, err
}

// streamTree runs every applicable cluster's projection stream over a
// parsed tree with a counting yield: the tree check's enumeration with
// the fold removed.
func streamTree(cs *xfd.CheckerSet, t *xmltree.Tree) int {
	n := 0
	for ci := 0; ci < cs.NumClusters(); ci++ {
		if cs.ClusterLabel(ci) == t.Root.Label {
			cs.ClusterProjector(ci).Stream(t, func(tuples.Tuple) bool { n++; return true })
		}
	}
	return n
}
