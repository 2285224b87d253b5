// Command perfbench is the repository's end-to-end benchmark of the
// XML FD-checking pipeline. It drives the library in-process — the
// root xmlnorm API and the exported functions of internal/* — on one
// named workload, generates every input from --seed before any timing
// starts, checks every verdict against a reference, and prints its
// metrics as one JSON object on the last line of standard output:
//
//	go build -o perfbench . && ./perfbench --workload big_doc_stream --seed 1 --seconds 12 --trace 0
//
// (run.sh does exactly that from the repository root, keeping the build
// inside .bench_build/). With --trace 0 it reports the end-to-end
// metrics; with --trace 1 it runs the separate traced run and reports
// the per-layer metrics, writing the recorded spans to
// <workdir>/traces/. README.md lists the workloads and metrics.
//
// The benchmark starts no child process and opens no listener; every
// goroutine it starts is joined before it returns, and a deadline
// turns a hang into a failed run (exit status 3) rather than a stuck
// process.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// deadline bounds one whole run, inputs and verification included; the
// benchmark must exit within three minutes even when the program under
// test hangs.
const deadline = 160 * time.Second

// longOp is the operation length above which the heap is collected
// between operations (outside their timing), so every long operation
// starts from the same heap state rather than from wherever the
// previous one left the GC cycle.
const longOp = 100 * time.Millisecond

// graceAfterCancel is how long a cancelled run waits for the workload
// to notice and return before giving up on it.
const graceAfterCancel = 10 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// field is one entry of a workload's input fingerprint.
type field struct {
	Name  string
	Value any
}

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	measure  time.Duration
	trace    bool
	workdir  string // scratch space inside the checkout
	root     string // repository root (testdata/ lives here)
	size     sizes
	log      io.Writer
}

func main() {
	var (
		cfg     config
		seconds int
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&seconds, "seconds", 12, "how long the measured phase runs")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for temporary files and traces")
	flag.Parse()
	if flag.NArg() > 0 || seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg.measure = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.size = fullSizes
	cfg.log = os.Stderr
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg.root = root

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()

	res, info, err := runGuarded(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if errors.Is(err, context.DeadlineExceeded) {
			os.Exit(3)
		}
		os.Exit(1)
	}
	for _, line := range info {
		fmt.Println(line)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runGuarded runs the workload on its own goroutine so that a hang in
// the program under test still returns at ctx's deadline. The run's
// temporary directory is removed on every path: success, error,
// interrupt and deadline. When ctx ends first, the workload (which
// checks ctx between operations) gets a grace period to return; only
// one stuck inside a single library call is left, and the caller then
// exits the process.
func runGuarded(ctx context.Context, cfg config) (*result, []string, error) {
	w, ok := lookup(cfg.workload)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, nil, err
	}
	tmp, err := os.MkdirTemp(cfg.workdir, "perfbench-"+w.name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)

	type done struct {
		res  *result
		info []string
		err  error
	}
	ch := make(chan done, 1) // buffered: the sender never blocks if we stopped waiting
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r, info, err := runWorkload(ctx, w, cfg, tmp)
		ch <- done{r, info, err}
	}()
	select {
	case d := <-ch:
		wg.Wait()
		return d.res, d.info, d.err
	case <-ctx.Done():
	}
	grace := time.NewTimer(graceAfterCancel)
	defer grace.Stop()
	select {
	case <-ch:
		wg.Wait()
	case <-grace.C:
	}
	return nil, nil, fmt.Errorf("workload %s: %w", w.name, ctx.Err())
}

// runWorkload generates the inputs, times the set-up, runs the measured
// (or traced) phase, verifies and assembles the result.
func runWorkload(ctx context.Context, w workload, cfg config, tmp string) (*result, []string, error) {
	inst, err := w.prepare(ctx, cfg, tmp)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: generating inputs: %w", w.name, err)
	}

	settle()
	setup, err := timeSetup(ctx, inst)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}

	heap := startHeapSampler(ctx, 5*time.Millisecond)
	var ph phaseResult
	var layers map[string]metric
	if cfg.trace {
		ph, layers, err = tracedRun(ctx, w, inst, cfg)
	} else {
		ph, err = measureLoop(ctx, inst, cfg.measure, nil)
	}
	peak := heap.stop()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	fc, ff, err := inst.finish()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: final check: %w", w.name, err)
	}
	checked, failed := ph.checked+fc, ph.failed+ff

	res := &result{Correct: failed == 0, Attempted: checked, Failed: failed}
	if cfg.trace {
		layers["runtime.peak_heap_mb"] = metric{float64(peak) / (1 << 20), "MB"}
		res.Metrics = layers
	} else {
		res.Metrics = endToEnd(setup, ph)
	}

	var info []string
	fp := []string{fmt.Sprintf("workload=%s", w.name), fmt.Sprintf("seed=%d", cfg.seed)}
	for _, f := range inst.fingerprint() {
		fp = append(fp, fmt.Sprintf("%s=%v", f.Name, f.Value))
	}
	info = append(info, "fingerprint: "+strings.Join(fp, " "))
	_, tailName := tail(ph.lat)
	info = append(info, fmt.Sprintf("samples: ops=%d setups=%d tail=%s", len(ph.lat), len(setup), tailName))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		info = append(info, fmt.Sprintf("metric: %s = %.6g %s", n, m.Value, m.Unit))
	}
	return res, info, nil
}

// timeSetup runs the workload's set-up several times (at least five,
// at most fifty, stopping after two seconds) and returns every
// duration; the reported set-up time is their median.
func timeSetup(ctx context.Context, inst instance) ([]time.Duration, error) {
	var ds []time.Duration
	start := time.Now()
	for len(ds) < 5 || (len(ds) < 50 && time.Since(start) < 2*time.Second) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := inst.setup(); err != nil {
			return nil, err
		}
		ds = append(ds, time.Since(t0))
	}
	return ds, nil
}

// phaseResult is what one measured phase produced.
type phaseResult struct {
	lat             []time.Duration // per operation: its driver work
	counters        runtimeCounters
	checked, failed int
}

// measureLoop runs operations until d has elapsed (always at least
// one), recording latencies and the runtime counters across the phase.
func measureLoop(ctx context.Context, inst instance, d time.Duration, tr *tracer) (phaseResult, error) {
	var ph phaseResult
	settle()
	if err := inst.startPhase(ctx); err != nil {
		return ph, err
	}
	c0 := readCounters()
	start := time.Now()
	var opErr error
	for {
		if err := ctx.Err(); err != nil {
			opErr = err
			break
		}
		tr.nextOp()
		r, err := inst.op(ctx, tr)
		if err != nil {
			opErr = err
			break
		}
		ph.lat = append(ph.lat, r.work)
		ph.checked += r.checked
		ph.failed += r.failed
		if time.Since(start) >= d {
			break
		}
		if r.work > longOp {
			settle()
		}
	}
	ph.counters = readCounters().sub(c0)
	pc, pf, err := inst.endPhase()
	ph.checked += pc
	ph.failed += pf
	if opErr != nil {
		return ph, opErr
	}
	return ph, err
}

// endToEnd turns a measured phase into the end-to-end metrics.
func endToEnd(setup []time.Duration, ph phaseResult) map[string]metric {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	setupS := make([]float64, len(setup))
	for i, d := range setup {
		setupS[i] = d.Seconds()
	}
	ops := float64(len(ph.lat))
	t, _ := tail(ph.lat)
	return map[string]metric{
		"setup_s":            {medianFloat(setupS), "s"},
		"p50_ms":             {ms(quantile(ph.lat, 0.5)), "ms"},
		"tail_ms":            {ms(t), "ms"},
		"allocs_per_op":      {float64(ph.counters.allocObjects) / ops, "count"},
		"alloc_bytes_per_op": {float64(ph.counters.allocBytes) / ops, "B"},
	}
}

// tracedRun is the separate traced run: an untraced phase for the
// baseline and the runtime counters, then a traced phase whose spans
// give the per-layer split. Both phases check every verdict.
func tracedRun(ctx context.Context, w workload, inst instance, cfg config) (phaseResult, map[string]metric, error) {
	plain, err := measureLoop(ctx, inst, cfg.measure*2/5, nil)
	if err != nil {
		return plain, nil, err
	}
	tr := newTracer()
	traced, err := measureLoop(ctx, inst, cfg.measure*3/5, tr)
	both := plain
	both.checked += traced.checked
	both.failed += traced.failed
	if err != nil {
		return both, nil, err
	}
	ops := tr.perOp()
	layers := allLayers()
	for name, v := range inst.layers(ops) {
		if _, ok := layers[name]; !ok {
			return both, nil, fmt.Errorf("workload reports undeclared layer metric %q", name)
		}
		layers[name] = metric{v, layers[name].Unit}
	}
	// Overhead: the traced operations' driver spans against the
	// untraced operations, both as means; a driver span covers exactly
	// the work of one untraced operation.
	var drv []float64
	for _, o := range ops {
		drv = append(drv, o.total[driverSpan].Seconds())
	}
	var base []float64
	for _, d := range plain.lat {
		base = append(base, d.Seconds())
	}
	layers["trace.overhead_pct"] = metric{(mean(drv) - mean(base)) / mean(base) * 100, "%"}
	c := plain.counters
	layers["runtime.gc_cycles"] = metric{float64(c.gcCycles) / float64(len(plain.lat)), "count"}
	if c.totalCPU > 0 {
		layers["runtime.gc_cpu_fraction"] = metric{c.gcCPU / c.totalCPU, "ratio"}
	}
	path := filepath.Join(cfg.workdir, "traces", fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
	if err := tr.write(path); err != nil {
		return both, nil, err
	}
	fmt.Fprintf(cfg.log, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	return both, layers, nil
}
