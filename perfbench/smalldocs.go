package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"xmlnorm"
	"xmlnorm/internal/corpus"
	"xmlnorm/internal/engine"
	"xmlnorm/internal/gen"
	"xmlnorm/internal/pool"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

// violatingShare is the fixed share of small documents built to
// violate FD3 (a student number carrying two names).
const violatingShare = 0.2

// shards is how many subdirectories the corpus is dealt into; one
// operation sweeps one shard, so a run yields enough sweeps for a
// steady median.
const shards = 10

// smallDocs is the many-small-documents path: a corpus of generated
// university documents of 1–20 courses of 1–8 students, in ten equal
// shards, each swept by CheckCorpus. Each document's expected verdict
// is the violation it was built with.
type smallDocs struct {
	noPhases
	specText string
	shards   [][]string        // shard -> its document paths
	want     map[string]string // path -> violated FDs, rendered
	bytes    int64
	sum      string
	workers  int
	next     int // the shard the next operation sweeps

	sigma []xmlnorm.FD
	cs    *xfd.CheckerSet

	// Per traced operation.
	checkOneP50, efficiency, tokens, tuples, foldAllocs, foldBytes []float64
}

func prepareSmallDocs(ctx context.Context, cfg config, tmp string) (instance, error) {
	spec, err := readSpec(cfg, "courses.spec")
	if err != nil {
		return nil, err
	}
	parsed, err := xmlnorm.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	s := &smallDocs{
		specText: spec,
		want:     map[string]string{},
		workers:  pool.DefaultWorkers(),
	}
	sz := cfg.size
	rng := rand.New(rand.NewSource(cfg.seed))
	fd3 := renderFDs([]xmlnorm.FD{parsed.FDs[2]})
	per := sz.smallDocs / shards
	h := sha256.New()
	h.Write([]byte(spec))
	nBad := int(float64(per)*violatingShare + 0.5)
	for k := 0; k < shards; k++ {
		dir := filepath.Join(tmp, "corpus", fmt.Sprintf("shard-%02d", k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		// Every shard deals out the same multiset of document sizes and
		// the same number of violating documents in a seeded order, so
		// every shard and every seed checks the same amount of work.
		courseCounts := rng.Perm(per)
		studentCounts := rng.Perm(per)
		bad := map[int]bool{}
		for _, i := range rng.Perm(per)[:nBad] {
			bad[i] = true
		}
		var paths []string
		for i := 0; i < per; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			courses := 1 + courseCounts[i]%sz.smallMaxCourses
			if bad[i] && courses < 2 {
				courses = 2
			}
			students := 1 + studentCounts[i]%sz.smallStudents
			poolSize := courses*students/2 + students
			doc := gen.University(courses, students, poolSize, poolSize/3+1, rng)
			want := ""
			if bad[i] {
				breakFD3(doc)
				want = fd3
			}
			path := filepath.Join(dir, fmt.Sprintf("doc-%05d.xml", i))
			text := doc.String()
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				return nil, err
			}
			h.Write([]byte(text))
			paths = append(paths, path)
			s.want[path] = want
			s.bytes += int64(len(text))
		}
		s.shards = append(s.shards, paths)
	}
	s.sum = hex.EncodeToString(h.Sum(nil))[:16]
	// CheckCorpus compiles Σ once into the process-global registry;
	// fill it before timing, as a long-running checker would have.
	if _, err := engine.SharedCheckers(parsed.FDs); err != nil {
		return nil, err
	}
	return s, nil
}

// breakFD3 gives the first student of the first course a second,
// conflicting name in the last course, so FD3 (sno -> name) fails
// while FD1 and FD2 still hold.
func breakFD3(doc *xmltree.Tree) {
	courses := doc.Root.Children
	first := courses[0].Children[1].Children[0] // course/taken_by/student
	sno := first.Attrs["sno"]
	takenBy := courses[len(courses)-1].Children[1]
	for _, st := range takenBy.Children {
		if st.Attrs["sno"] == sno {
			st.Children[0].SetText("conflict") // student/name
			return
		}
	}
	st := xmltree.NewNode("student").SetAttr("sno", sno)
	st.Append(xmltree.NewNode("name").SetText("conflict"), xmltree.NewNode("grade").SetText("A"))
	takenBy.Append(st)
}

// renderFDs is the comparable form of a verdict: the violated FDs in
// Σ order.
func renderFDs(fds []xmlnorm.FD) string {
	var ss []string
	for _, f := range fds {
		ss = append(ss, f.String())
	}
	return strings.Join(ss, "; ")
}

func violatedFDs(vs []xfd.Violated) string {
	fds := make([]xmlnorm.FD, len(vs))
	for i, v := range vs {
		fds[i] = v.FD
	}
	return renderFDs(fds)
}

func (s *smallDocs) setup() error {
	spec, err := xmlnorm.ParseSpec(s.specText)
	if err != nil {
		return err
	}
	cs, err := xfd.NewCheckerSetFor(spec.FDs)
	if err != nil {
		return err
	}
	s.sigma, s.cs = spec.FDs, cs
	return nil
}

func (s *smallDocs) fingerprint() []field {
	return []field{
		{"spec", "courses.spec"},
		{"docs", len(s.want)},
		{"shards", shards},
		{"doc_bytes", s.bytes},
		{"violating_share", violatingShare},
		{"workers", s.workers},
		{"inputs_sha256", s.sum},
	}
}

// op is one CheckCorpus sweep over the next shard. A traced sweep also
// times each document inside the pool, through the CheckFile hook, for
// the pool efficiency.
func (s *smallDocs) op(ctx context.Context, tr *tracer) (opResult, error) {
	var (
		r    opResult
		errs []string
		mu   sync.Mutex
		busy time.Duration // sum of in-pool CheckOne times, traced sweeps only
	)
	opts := xmlnorm.CorpusOptions{Workers: s.workers}
	if tr != nil {
		shared, err := engine.SharedCheckers(s.sigma)
		if err != nil {
			return r, err
		}
		opts.CheckFile = func(path string, ropts xfd.ReaderOptions) ([]xfd.Violated, error) {
			t0 := time.Now()
			v, err := corpus.CheckOne(shared, path, ropts)
			d := time.Since(t0)
			mu.Lock()
			busy += d
			mu.Unlock()
			return v, err
		}
	}
	emit := func(v xmlnorm.CorpusVerdict) {
		r.checked++
		if v.Err != nil || violatedFDs(v.Violated) != s.want[v.Path] {
			r.failed++
			if len(errs) < 3 {
				errs = append(errs, fmt.Sprintf("%s: got %q err %v, want %q", filepath.Base(v.Path), violatedFDs(v.Violated), v.Err, s.want[v.Path]))
			}
		}
	}
	paths := s.shards[s.next%shards]
	s.next++
	dir := filepath.Dir(paths[0])
	drv := tr.begin(driverSpan, -1)
	t0 := time.Now()
	sum, err := xmlnorm.CheckCorpus(ctx, s.sigma, dir, opts, emit)
	wall := time.Since(t0)
	tr.end(drv)
	if err != nil {
		return r, err
	}
	if sum.Docs != len(paths) {
		r.failed += len(paths) - sum.Docs
	}
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "perfbench: small_docs mismatch:", e)
	}
	r.work = wall
	if tr != nil {
		s.efficiency = append(s.efficiency, busy.Seconds()/(wall.Seconds()*float64(s.workers)))
		return r, s.stopAtLayers(tr, dir, paths)
	}
	return r, nil
}

// stopAtLayers times the walker alone over the swept shard, then three
// sequential passes over its documents: a bare token walk, the walk
// feeding the clusters' token streams, and the full CheckOne. The
// passes run layerReps times, each after a collection; the differences
// of their fastest repetitions are the per-document self times of
// tuples and the fold.
func (s *smallDocs) stopAtLayers(tr *tracer, dir string, paths []string) error {
	var err error
	tr.do("corpus.Walk", -1, func() { _, err = corpus.Walk(dir, corpus.Options{}) })
	if err != nil {
		return err
	}
	var tok, tup int
	foldAllocs, foldBytes, oneP50 := -1.0, -1.0, -1.0
	forEachFile := func(name string, fn func(p string) error) error {
		settle()
		tr.do(name, -1, func() {
			for _, p := range paths {
				if err = fn(p); err != nil {
					return
				}
			}
		})
		return err
	}
	for rep := 0; rep < layerReps; rep++ {
		tok, tup = 0, 0
		if err := forEachFile("xmltree.WalkTokens", func(p string) error {
			n, err := withFile(p, walkBare)
			tok += n
			return err
		}); err != nil {
			return err
		}
		c0 := readCounters()
		if err := forEachFile("tuples.TokenStream", func(p string) error {
			n, err := withFile(p, func(r io.Reader) (int, error) { return walkStreams(s.cs, r) })
			tup += n
			return err
		}); err != nil {
			return err
		}
		c1 := readCounters()
		one := make([]time.Duration, 0, len(paths))
		if err := forEachFile("corpus.CheckOne", func(p string) error {
			t0 := time.Now()
			_, err := corpus.CheckOne(s.cs, p, xfd.ReaderOptions{})
			one = append(one, time.Since(t0))
			return err
		}); err != nil {
			return err
		}
		c2 := readCounters()
		n := float64(len(paths))
		enum, full := c1.sub(c0), c2.sub(c1)
		if a := (float64(full.allocObjects) - float64(enum.allocObjects)) / n; foldAllocs < 0 || a < foldAllocs {
			foldAllocs = a
		}
		if by := (float64(full.allocBytes) - float64(enum.allocBytes)) / n; foldBytes < 0 || by < foldBytes {
			foldBytes = by
		}
		if p50 := float64(quantile(one, 0.5)) / float64(time.Microsecond); oneP50 < 0 || p50 < oneP50 {
			oneP50 = p50
		}
	}
	n := float64(len(paths))
	s.tokens = append(s.tokens, float64(tok)/n)
	s.tuples = append(s.tuples, float64(tup)/n)
	s.foldAllocs = append(s.foldAllocs, foldAllocs)
	s.foldBytes = append(s.foldBytes, foldBytes)
	s.checkOneP50 = append(s.checkOneP50, oneP50)
	return nil
}

func withFile(path string, fn func(io.Reader) (int, error)) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return fn(f)
}

func (s *smallDocs) layers(ops []opSpans) map[string]float64 {
	n := float64(len(s.want) / shards)
	perDoc := func(a, c string) float64 {
		return spanMedian(ops, func(o opSpans) time.Duration { return o.min[a] - o.min[c] }) / n
	}
	return map[string]float64{
		"xmltree.tokenize_s":      perDoc("xmltree.WalkTokens", ""),
		"xmltree.tokens":          medianFloat(s.tokens),
		"tuples.enumerate_s":      perDoc("tuples.TokenStream", "xmltree.WalkTokens"),
		"tuples.tuples":           medianFloat(s.tuples),
		"xfd.fold_s":              perDoc("corpus.CheckOne", "tuples.TokenStream"),
		"xfd.fold_allocs":         medianFloat(s.foldAllocs),
		"xfd.fold_alloc_bytes":    medianFloat(s.foldBytes),
		"corpus.walk_s":           spanMedian(ops, func(o opSpans) time.Duration { return o.total["corpus.Walk"] }),
		"corpus.check_one_p50_us": medianFloat(s.checkOneP50),
		"corpus.pool_efficiency":  medianFloat(s.efficiency),
	}
}
