package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"time"
)

// workload is one named set of inputs the benchmark can run.
type workload struct {
	name string
	why  string
	// prepare generates the workload's inputs from cfg.seed (untimed)
	// and returns the instance that sets up and runs operations on
	// them. Temporary files go under tmp.
	prepare func(ctx context.Context, cfg config, tmp string) (instance, error)
}

// opResult is one operation's outcome: the time its driver work took
// (the operation's latency; generating its input and checking its
// verdict are outside it), and how many verdicts it checked against
// the reference and how many disagreed.
type opResult struct {
	work            time.Duration
	checked, failed int
}

// instance is a workload with its inputs generated.
type instance interface {
	// setup builds the ready-to-check state from the spec text (and,
	// for live_txn, the document bytes); it is timed and repeated.
	setup() error
	// startPhase and endPhase bracket each measured phase (live_txn's
	// reader goroutine runs between them); endPhase reports the
	// verdicts the phase's side work checked.
	startPhase(ctx context.Context) error
	endPhase() (checked, failed int, err error)
	// op runs one operation. With a non-nil tracer it records a
	// "driver" span covering exactly the untraced operation's work,
	// then runs the stop-at-layer passes the per-layer split needs.
	op(ctx context.Context, tr *tracer) (opResult, error)
	// layers derives the per-layer metrics from the traced operations'
	// spans and the instance's own counts.
	layers(ops []opSpans) map[string]float64
	// finish runs the end-of-run checks.
	finish() (checked, failed int, err error)
	fingerprint() []field
}

// noPhases gives an instance the default no-op phase hooks and checks.
type noPhases struct{}

func (noPhases) startPhase(context.Context) error { return nil }
func (noPhases) endPhase() (int, int, error)      { return 0, 0, nil }
func (noPhases) finish() (int, int, error)        { return 0, 0, nil }

// layerReps is how many times a traced operation repeats its
// stop-at-layer passes; each pass's self time uses its fastest
// repetition, since interference only ever slows a pass down.
const layerReps = 2

// driverSpan is the span name a traced operation wraps its driver
// work in; the tracing overhead compares it with untraced operations.
const driverSpan = "driver"

// sizes are the input dimensions; fullSizes is the benchmark, toySizes
// the hygiene test.
type sizes struct {
	bigCourses, bigStudents, bigPool, bigNames int
	smallDocs, smallMaxCourses, smallStudents  int
	liveCourses, liveStudents, txnEdits        int
	chainDepth                                 int
}

var fullSizes = sizes{
	bigCourses: 4000, bigStudents: 60, bigPool: 5000, bigNames: 500,
	smallDocs: 3000, smallMaxCourses: 20, smallStudents: 8,
	liveCourses: 1000, liveStudents: 8, txnEdits: 64,
	chainDepth: 8,
}

var toySizes = sizes{
	bigCourses: 40, bigStudents: 6, bigPool: 50, bigNames: 10,
	smallDocs: 30, smallMaxCourses: 4, smallStudents: 4,
	liveCourses: 24, liveStudents: 6, txnEdits: 16,
	chainDepth: 3,
}

var workloads = []workload{
	{"big_doc_stream", "one 24 MB university document streamed through CheckDocumentReader: tokenizer and fold dominate", prepareBigDoc(streamDriver)},
	{"big_doc_tree", "the same document parsed to a tree and checked by sharded Violations: parse and tree fold dominate", prepareBigDoc(treeDriver)},
	{"big_doc_fragment", "the same document split into nproc fragments, folded, marshaled, unmarshaled and merged", prepareBigDoc(fragmentDriver)},
	{"small_docs", "3000 small documents swept by CheckCorpus on nproc workers: per-document fixed costs and the pool dominate", prepareSmallDocs},
	{"live_txn", "64-edit transactions on an incremental Session beside a snapshot reader: almost no tokenizing", prepareLiveTxn},
	{"spec_analysis", "Analyze over courses, dblp and chain-8 specs: the only workload in engine, implication and xnf", prepareAnalysis},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return ns
}

// endToEndMetrics and layerMetrics name every metric the benchmark
// reports, with its unit; BENCHMARK.json declares the same lists.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "B"},
}

var layerMetrics = []struct{ name, unit string }{
	{"xmltree.tokenize_s", "s"},
	{"xmltree.tokens", "count"},
	{"xmltree.parse_s", "s"},
	{"tuples.enumerate_s", "s"},
	{"tuples.tuples", "count"},
	{"tuples.tree_stream_s", "s"},
	{"xfd.fold_s", "s"},
	{"xfd.fold_allocs", "count"},
	{"xfd.fold_alloc_bytes", "B"},
	{"xfd.tree_fold_s", "s"},
	{"xfd.split_s", "s"},
	{"xfd.fragment_fold_s", "s"},
	{"xfd.marshal_s", "s"},
	{"xfd.unmarshal_s", "s"},
	{"xfd.merge_s", "s"},
	{"xfd.state_bytes", "B"},
	{"corpus.walk_s", "s"},
	{"corpus.check_one_p50_us", "us"},
	{"corpus.pool_efficiency", "ratio"},
	{"incremental.setup_s", "s"},
	{"incremental.stage_s", "s"},
	{"incremental.commit_s", "s"},
	{"incremental.report_read_us", "us"},
	{"analyze.keys_s", "s"},
	{"analyze.cover_s", "s"},
	{"analyze.diagnose_s", "s"},
	{"analyze.fourxnf_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.peak_heap_mb", "MB"},
	{"trace.overhead_pct", "%"},
}

// allLayers returns every per-layer metric at zero: a layer a workload
// does not exercise reports 0.
func allLayers() map[string]metric {
	m := make(map[string]metric, len(layerMetrics))
	for _, l := range layerMetrics {
		m[l.name] = metric{0, l.unit}
	}
	return m
}

// digest is a short content hash of a workload's generated inputs: a
// change to how they are generated shows in the fingerprint.
func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// readSpec reads a specification shipped in the repository's testdata.
func readSpec(cfg config, name string) (string, error) {
	b, err := os.ReadFile(filepath.Join(cfg.root, "testdata", name))
	return string(b), err
}

// spanMedian is the median over operations of f applied to each
// operation's spans, in seconds.
func spanMedian(ops []opSpans, f func(opSpans) time.Duration) float64 {
	xs := make([]float64, len(ops))
	for i, o := range ops {
		xs[i] = f(o).Seconds()
	}
	return medianFloat(xs)
}
