package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"xmlnorm"
	"xmlnorm/internal/analyze"
	"xmlnorm/internal/gen"
	"xmlnorm/internal/xfd"
)

// analysis is the design-time path: Analyze over the courses, dblp and
// a generated chain spec. Every Analyze call builds a fresh engine, so
// no cache carries over between operations. The reference is
// CandidateKeysBaseline's key list on courses and dblp (a fresh engine
// per candidate, computed once before timing), and for every spec the
// first operation's report facts, which every later one must repeat.
type analysis struct {
	noPhases
	names []string
	texts []string
	specs []xmlnorm.Spec
	want  []string // per spec: baseline key list, or "" where none is computed
	facts []string // per spec: the first operation's report facts
}

func prepareAnalysis(_ context.Context, cfg config, _ string) (instance, error) {
	a := &analysis{}
	for _, name := range []string{"courses.spec", "dblp.spec"} {
		text, err := readSpec(cfg, name)
		if err != nil {
			return nil, err
		}
		a.names = append(a.names, name)
		a.texts = append(a.texts, text)
	}
	d := cfg.size.chainDepth
	a.names = append(a.names, fmt.Sprintf("chain-%d", d))
	a.texts = append(a.texts, fmt.Sprintf("%s%%%%\n%s", gen.ChainDTD(d, 2), xfd.FormatSet(gen.ChainFDs(d, 2))))
	if err := a.setup(); err != nil {
		return nil, err
	}
	for i, s := range a.specs {
		want := ""
		if i < 2 {
			keys, err := analyze.CandidateKeysBaseline(s, analyze.DefaultMaxKeySize)
			if err != nil {
				return nil, err
			}
			want = renderKeys(keys)
		}
		a.want = append(a.want, want)
	}
	return a, nil
}

// setup parses the three spec texts.
func (a *analysis) setup() error {
	specs := make([]xmlnorm.Spec, len(a.texts))
	for i, t := range a.texts {
		s, err := xmlnorm.ParseSpec(t)
		if err != nil {
			return fmt.Errorf("%s: %w", a.names[i], err)
		}
		if err := s.Validate(); err != nil {
			return fmt.Errorf("%s: %w", a.names[i], err)
		}
		specs[i] = s
	}
	a.specs = specs
	return nil
}

func (a *analysis) fingerprint() []field {
	var fds []string
	for i, s := range a.specs {
		fds = append(fds, fmt.Sprintf("%s:%d", a.names[i], len(s.FDs)))
	}
	var texts [][]byte
	for _, t := range a.texts {
		texts = append(texts, []byte(t))
	}
	return []field{
		{"specs", strings.Join(a.names, ",")},
		{"fds", strings.Join(fds, ",")},
		{"inputs_sha256", digest(texts...)},
	}
}

func renderKeys(keys []analyze.Key) string {
	var ss []string
	for _, k := range keys {
		ss = append(ss, k.String())
	}
	return strings.Join(ss, " | ")
}

// reportFacts renders every engine-independent fact of a report.
func reportFacts(r *xmlnorm.AnalysisReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "keys %s\n", renderKeys(r.Keys))
	for _, c := range r.Cover.Sigma {
		fmt.Fprintf(&b, "sigma %s: %s\n", c.FD, c.Describe())
	}
	fmt.Fprintf(&b, "xnf %v\n", r.InXNF)
	for _, d := range r.Diagnoses {
		fmt.Fprintf(&b, "diag %s -> %s\n", d.Minimal, d.Repair)
	}
	fmt.Fprintf(&b, "4xnf %v %v\n", r.FourXNF.Satisfied, r.FourXNF.Violations)
	return b.String()
}

// op is one Analyze pass over the spec set.
func (a *analysis) op(_ context.Context, tr *tracer) (opResult, error) {
	var r opResult
	drv := tr.begin(driverSpan, -1)
	t0 := time.Now()
	reps := make([]*xmlnorm.AnalysisReport, len(a.specs))
	for i, s := range a.specs {
		var err error
		tr.do("analyze.Analyze", drv, func() { reps[i], err = xmlnorm.Analyze(s, xmlnorm.AnalyzeOptions{}) })
		if err != nil {
			tr.end(drv)
			return r, fmt.Errorf("%s: %w", a.names[i], err)
		}
	}
	r.work = time.Since(t0)
	tr.end(drv)
	first := a.facts == nil
	for i, rep := range reps {
		r.checked++
		f := reportFacts(rep)
		if first {
			a.facts = append(a.facts, f)
		}
		ok := f == a.facts[i]
		if a.want[i] != "" && renderKeys(rep.Keys) != a.want[i] {
			ok = false
		}
		if !ok {
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: spec_analysis %s: report differs from the reference\n", a.names[i])
		}
	}
	if tr != nil {
		return r, a.stopAtLayers(tr)
	}
	return r, nil
}

// stopAtLayers calls each part of the analysis on its own, per spec:
// the candidate-key search, the canonical cover, the XNF diagnosis and
// the 4XNF test.
func (a *analysis) stopAtLayers(tr *tracer) error {
	for _, s := range a.specs {
		var err error
		tr.do("analyze.CandidateKeys", -1, func() { _, err = analyze.CandidateKeys(s, analyze.Options{}) })
		if err == nil {
			tr.do("analyze.CanonicalCover", -1, func() { _, err = analyze.CanonicalCover(s) })
		}
		if err == nil {
			tr.do("analyze.Diagnose", -1, func() { _, err = analyze.Diagnose(s, analyze.Options{}) })
		}
		if err == nil {
			tr.do("analyze.Check4XNF", -1, func() { _, err = analyze.Check4XNF(s, analyze.Options{}) })
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (a *analysis) layers(ops []opSpans) map[string]float64 {
	s := func(name string) float64 {
		return spanMedian(ops, func(o opSpans) time.Duration { return o.total[name] })
	}
	return map[string]float64{
		"analyze.keys_s":     s("analyze.CandidateKeys"),
		"analyze.cover_s":    s("analyze.CanonicalCover"),
		"analyze.diagnose_s": s("analyze.Diagnose"),
		"analyze.fourxnf_s":  s("analyze.Check4XNF"),
	}
}
