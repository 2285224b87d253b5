package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"xmlnorm"
	"xmlnorm/internal/gen"
	"xmlnorm/internal/incremental"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

// readerPace is how often the snapshot reader reads a report.
const readerPace = 2 * time.Millisecond

// liveTxn is the write-beside-read path: an incremental Session over a
// university document, one closed-loop writer committing seeded
// transactions and one reader goroutine reading Snapshot().Report() at
// a fixed pace. A model of the document (student number and name of
// every live student, by course) predicts each commit's violated set;
// it is computed from the edit script alone, not from the Session.
type liveTxn struct {
	specText string
	docBytes []byte
	students int
	edits    int
	rng      *rand.Rand

	cs    *xfd.CheckerSet
	sigma []xmlnorm.FD
	sess  *incremental.Session

	// The model, rebuilt whenever set-up replaces the Session.
	modelOf  *incremental.Session
	orig     []*liveStudent // students of the generated document
	inserted []*liveStudent // students the writer inserted, oldest first
	takenBy  []*xmltree.Node
	perturb  []*liveStudent // students whose values differ from their original
	txnNo    int

	// The reader goroutine of the current phase. reporting is set once
	// the reader has read a violated epoch's report.
	reporting bool
	stop      chan struct{}
	wg        sync.WaitGroup
	reads     []time.Duration
	rchecks   int
	rfailed   int
}

type liveStudent struct {
	course          int
	node, name      *xmltree.Node
	sno, text       string // current values
	origSno, origTx string
}

func prepareLiveTxn(_ context.Context, cfg config, _ string) (instance, error) {
	spec, err := readSpec(cfg, "courses.spec")
	if err != nil {
		return nil, err
	}
	sz := cfg.size
	rng := rand.New(rand.NewSource(cfg.seed))
	poolSize := sz.liveCourses * sz.liveStudents / 2
	doc := gen.University(sz.liveCourses, sz.liveStudents, poolSize, poolSize/3+1, rng)
	return &liveTxn{
		specText: spec,
		docBytes: []byte(doc.String()),
		students: sz.liveCourses * sz.liveStudents,
		edits:    sz.txnEdits,
		rng:      rand.New(rand.NewSource(cfg.seed + 1)),
	}, nil
}

// setup goes from the spec text and the document bytes to a ready
// Session: parse, compile Σ, parse the document, build the Session.
func (l *liveTxn) setup() error {
	spec, err := xmlnorm.ParseSpec(l.specText)
	if err != nil {
		return err
	}
	cs, err := xfd.NewCheckerSetFor(spec.FDs)
	if err != nil {
		return err
	}
	doc, err := xmlnorm.ParseDocumentReader(bytes.NewReader(l.docBytes))
	if err != nil {
		return err
	}
	sess, err := incremental.New(cs, doc)
	if err != nil {
		return err
	}
	l.cs, l.sigma, l.sess = cs, spec.FDs, sess
	return nil
}

func (l *liveTxn) fingerprint() []field {
	return []field{
		{"spec", "courses.spec"},
		{"doc_bytes", len(l.docBytes)},
		{"students", l.students},
		{"edits_per_txn", l.edits},
		{"reader_pace", readerPace},
		{"inputs_sha256", digest([]byte(l.specText), l.docBytes)},
	}
}

// buildModel indexes the Session's tree: every student with its name
// node, and every course's taken_by element.
func (l *liveTxn) buildModel() {
	l.modelOf, l.reporting = l.sess, false
	l.orig, l.inserted, l.takenBy, l.perturb = nil, nil, nil, nil
	for ci, course := range l.sess.Tree().Root.Children {
		tb := course.Children[1]
		l.takenBy = append(l.takenBy, tb)
		for _, st := range tb.Children {
			s := &liveStudent{course: ci, node: st, name: st.Children[0], sno: st.Attrs["sno"], text: st.Children[0].Text}
			s.origSno, s.origTx = s.sno, s.text
			l.orig = append(l.orig, s)
		}
	}
}

func (l *liveTxn) startPhase(ctx context.Context) error {
	if l.modelOf != l.sess {
		l.buildModel()
	}
	l.stop = make(chan struct{})
	l.reads, l.rchecks, l.rfailed = nil, 0, 0
	l.wg.Add(1)
	go l.reader(ctx)
	return nil
}

// reader reads the current snapshot's report at a fixed pace, checking
// each against the same snapshot's verdict, until the phase ends.
func (l *liveTxn) reader(ctx context.Context) {
	defer l.wg.Done()
	tick := time.NewTicker(readerPace)
	defer tick.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		snap := l.sess.Snapshot()
		t0 := time.Now()
		rep := snap.Report()
		l.reads = append(l.reads, time.Since(t0))
		violated := snap.Violated()
		if len(violated) > 0 && !l.reporting {
			// The first report of a violated epoch switches the Session
			// to reporting mode; if a commit displaced that epoch
			// meanwhile, Report documents a fall back to the current
			// epoch's report, so this one read is not checked.
			l.reporting = true
			continue
		}
		l.rchecks++
		if renderIdx(l.sigma, violated) != violatedFDs(rep) {
			l.rfailed++
		}
	}
}

func (l *liveTxn) endPhase() (int, int, error) {
	close(l.stop)
	l.wg.Wait()
	return l.rchecks, l.rfailed, nil
}

func renderIdx(sigma []xmlnorm.FD, idx []int) string {
	fds := make([]xmlnorm.FD, len(idx))
	for i, j := range idx {
		fds[i] = sigma[j]
	}
	return renderFDs(fds)
}

// edit is one staged operation of a transaction script.
type edit struct {
	kind   int // editText, editAttr, editInsert, editDelete
	st     *liveStudent
	value  string
	parent int // course, for inserts
}

const (
	editText = iota
	editAttr
	editInsert
	editDelete
)

// script draws the next transaction: one eighth of the edits are
// insert/delete pairs (the oldest inserted student is deleted once a
// few are live, so the document size stays steady), the rest are
// SetText on names and SetAttr on student numbers, half each. Every
// fourth transaction perturbs edits/16 students (a foreign name, or
// another student's number) and the next restores every perturbed
// student first, so FD3 flips between violated and healed while most
// commits land on a satisfied document. The other edits rewrite a
// student's current value.
func (l *liveTxn) script() []edit {
	var es []edit
	pairs := l.edits / 8
	if l.txnNo%4 == 1 {
		for _, s := range l.perturb {
			if s.text != s.origTx {
				es = append(es, edit{kind: editText, st: s, value: s.origTx})
			}
			if s.sno != s.origSno {
				es = append(es, edit{kind: editAttr, st: s, value: s.origSno})
			}
		}
		l.perturb = l.perturb[:0]
	}
	pick := func() *liveStudent { return l.orig[l.rng.Intn(len(l.orig))] }
	for i := 0; i < pairs; i++ {
		donor := pick()
		es = append(es, edit{kind: editInsert, parent: l.rng.Intn(len(l.takenBy)), value: donor.sno, st: &liveStudent{text: donor.text}})
	}
	perturbs := 0
	if l.txnNo%4 == 0 {
		perturbs = l.edits / 16
	}
	for len(es) < l.edits-pairs {
		s := pick()
		perturb := perturbs > 0
		perturbs--
		if len(es)%2 == 0 {
			v := s.text
			if perturb {
				v = fmt.Sprintf("renamed%d", l.txnNo)
			}
			es = append(es, edit{kind: editText, st: s, value: v})
		} else {
			v := s.sno
			if perturb {
				v = pick().sno
			}
			es = append(es, edit{kind: editAttr, st: s, value: v})
		}
	}
	for i := 0; i < pairs; i++ {
		es = append(es, edit{kind: editDelete})
	}
	l.rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	return es
}

// apply stages one edit in tx and updates the model to match.
func (l *liveTxn) apply(tx *incremental.Txn, e edit) error {
	switch e.kind {
	case editText:
		if e.value != e.st.origTx && e.st.text == e.st.origTx && e.st.sno == e.st.origSno {
			l.perturb = append(l.perturb, e.st)
		}
		e.st.text = e.value
		return tx.SetText(e.st.name.ID, e.value)
	case editAttr:
		if e.value != e.st.origSno && e.st.text == e.st.origTx && e.st.sno == e.st.origSno {
			l.perturb = append(l.perturb, e.st)
		}
		e.st.sno = e.value
		return tx.SetAttr(e.st.node.ID, "sno", e.value)
	case editInsert:
		s := e.st
		s.course, s.sno = e.parent, e.value
		s.node = xmltree.NewNode("student").SetAttr("sno", s.sno)
		s.name = xmltree.NewNode("name").SetText(s.text)
		s.node.Append(s.name, xmltree.NewNode("grade").SetText("B"))
		l.inserted = append(l.inserted, s)
		return tx.InsertSubtree(l.takenBy[e.parent].ID, s.node)
	default: // editDelete: the oldest inserted student, once some are live
		if len(l.inserted) <= l.edits/8 {
			return nil
		}
		s := l.inserted[0]
		l.inserted = l.inserted[1:]
		return tx.DeleteSubtree(s.node.ID)
	}
}

// predict is the model's verdict: FD1 (cno is a key) never changes;
// FD2 fails when a course holds one student number twice; FD3 fails
// when one student number carries two names.
func (l *liveTxn) predict() string {
	type courseSno struct {
		course int
		sno    string
	}
	perCourse := map[courseSno]int{}
	names := map[string]string{}
	var viol [3]bool
	see := func(s *liveStudent) {
		k := courseSno{s.course, s.sno}
		perCourse[k]++
		if perCourse[k] > 1 {
			viol[1] = true
		}
		if n, ok := names[s.sno]; ok && n != s.text {
			viol[2] = true
		}
		names[s.sno] = s.text
	}
	for _, s := range l.orig {
		see(s)
	}
	for _, s := range l.inserted {
		see(s)
	}
	var idx []int
	for i, v := range viol {
		if v {
			idx = append(idx, i)
		}
	}
	return renderIdx(l.sigma, idx)
}

// op is one transaction: Begin, the staged script, Commit. Its latency
// is Begin to Commit; the script is drawn and the verdict checked
// outside that interval.
func (l *liveTxn) op(_ context.Context, tr *tracer) (opResult, error) {
	es := l.script()
	l.txnNo++
	drv := tr.begin(driverSpan, -1)
	t0 := time.Now()
	tx := l.sess.Begin()
	stage := tr.begin("incremental.stage", drv)
	for _, e := range es {
		if err := l.apply(tx, e); err != nil {
			tx.Rollback()
			tr.end(stage)
			tr.end(drv)
			return opResult{}, err
		}
	}
	tr.end(stage)
	var err error
	tr.do("incremental.Commit", drv, func() { err = tx.Commit() })
	lat := time.Since(t0)
	tr.end(drv)
	if err != nil {
		return opResult{}, err
	}
	r := opResult{work: lat, checked: 1}
	if got, want := renderIdx(l.sigma, l.sess.Violated()), l.predict(); got != want {
		r.failed = 1
		fmt.Fprintf(os.Stderr, "perfbench: live_txn txn %d: violated %q, script predicts %q\n", l.txnNo, got, want)
	}
	return r, nil
}

// finish compares the Session's report with a from-scratch streaming
// check of the serialized live tree.
func (l *liveTxn) finish() (int, int, error) {
	got := xfd.CanonicalReport(l.sess.Report())
	fresh, err := l.cs.ViolationsReader(strings.NewReader(l.sess.Tree().String()), xfd.ReaderOptions{})
	if err != nil {
		return 0, 0, err
	}
	if got != xfd.CanonicalReport(fresh) {
		fmt.Fprintln(os.Stderr, "perfbench: live_txn: session report differs from a from-scratch check")
		return 1, 1, nil
	}
	return 1, 0, nil
}

func (l *liveTxn) layers(ops []opSpans) map[string]float64 {
	// The set-up's two layers, parsing the document and building the
	// Session, are timed on their own after the phase.
	var parse, build []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		doc, err := xmlnorm.ParseDocumentReader(bytes.NewReader(l.docBytes))
		if err != nil {
			break
		}
		t1 := time.Now()
		if _, err := incremental.New(l.cs, doc); err != nil {
			break
		}
		parse = append(parse, t1.Sub(t0).Seconds())
		build = append(build, time.Since(t1).Seconds())
	}
	reads := quantile(l.reads, 0.5)
	s := func(name string) float64 {
		return spanMedian(ops, func(o opSpans) time.Duration { return o.total[name] })
	}
	return map[string]float64{
		"xmltree.parse_s":            medianFloat(parse),
		"incremental.setup_s":        medianFloat(build),
		"incremental.stage_s":        s("incremental.stage"),
		"incremental.commit_s":       s("incremental.Commit"),
		"incremental.report_read_us": float64(reads) / float64(time.Microsecond),
	}
}
