package main

// The benchmark's own checks, at toy sizes: every workload runs clean
// in both modes and reports exactly the metrics BENCHMARK.json
// declares; no run leaves a goroutine, a temporary directory, a child
// process or a listener behind, whether it succeeds, is interrupted or
// hits its deadline.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

func toyConfig(t *testing.T, workload string, trace bool) config {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return config{
		workload: workload,
		seed:     7,
		measure:  300 * time.Millisecond,
		trace:    trace,
		workdir:  t.TempDir(),
		root:     root,
		size:     toySizes,
		log:      io.Discard,
	}
}

// settledGoroutines waits for the goroutine count to drop to want and
// returns the last count seen.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// leftovers lists what a run left in its work directory besides the
// trace files.
func leftovers(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if e.Name() != "traces" {
			out = append(out, e.Name())
		}
	}
	return out
}

func metricNames(ms map[string]metric) []string {
	var ns []string
	for n := range ms {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

func declared(list []struct{ name, unit string }) []string {
	var ns []string
	for _, m := range list {
		ns = append(ns, m.name)
	}
	sort.Strings(ns)
	return ns
}

func TestWorkloadsToy(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name + map[bool]string{false: "/timed", true: "/traced"}[trace]
			t.Run(name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				cfg := toyConfig(t, w.name, trace)
				res, info, err := runGuarded(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := declared(endToEndMetrics)
				if trace {
					want = declared(layerMetrics)
				}
				if got := metricNames(res.Metrics); strings.Join(got, ",") != strings.Join(want, ",") {
					t.Errorf("metrics %v, want %v", got, want)
				}
				if !trace {
					for n, m := range res.Metrics {
						if !(m.Value > 0) {
							t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
						}
					}
				}
				if len(info) == 0 || !strings.HasPrefix(info[0], "fingerprint: workload="+w.name) {
					t.Errorf("no fingerprint line: %q", info)
				}
				if left := leftovers(t, cfg.workdir); len(left) > 0 {
					t.Errorf("left behind in the work directory: %v", left)
				}
				if n := settledGoroutines(before); n > before {
					t.Errorf("%d goroutines after the run, %d before", n, before)
				}
			})
		}
	}
}

// TestSameSeedSameInputs checks that the inputs are a function of the
// seed alone.
func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		fp := func(seed int64) string {
			cfg := toyConfig(t, w.name, false)
			cfg.seed = seed
			inst, err := w.prepare(context.Background(), cfg, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, f := range inst.fingerprint() {
				b.WriteString(f.Name + "=" + strings.TrimSpace(strings.ReplaceAll(toString(f.Value), "\n", " ")) + " ")
			}
			return b.String()
		}
		if a, b := fp(3), fp(3); a != b {
			t.Errorf("%s: seed 3 gave %q then %q", w.name, a, b)
		}
	}
}

func toString(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestDeadlineAndInterrupt checks that a run whose context ends — the
// per-run deadline, or an interrupt — returns promptly with the
// context's error and removes its temporary directory, leaving no
// goroutine behind.
func TestDeadlineAndInterrupt(t *testing.T) {
	for _, tc := range []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
		want error
	}{
		{"deadline", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 400*time.Millisecond)
		}, context.DeadlineExceeded},
		{"interrupt", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(400*time.Millisecond, cancel)
			return ctx, cancel
		}, context.Canceled},
	} {
		for _, wl := range []string{"small_docs", "live_txn"} {
			t.Run(tc.name+"/"+wl, func(t *testing.T) {
				before := runtime.NumGoroutine()
				cfg := toyConfig(t, wl, false)
				cfg.measure = time.Minute
				ctx, cancel := tc.ctx()
				defer cancel()
				start := time.Now()
				_, _, err := runGuarded(ctx, cfg)
				if !errors.Is(err, tc.want) {
					t.Fatalf("err = %v, want %v", err, tc.want)
				}
				if el := time.Since(start); el > graceAfterCancel {
					t.Errorf("returned after %v", el)
				}
				if left := leftovers(t, cfg.workdir); len(left) > 0 {
					t.Errorf("left behind in the work directory: %v", left)
				}
				if n := settledGoroutines(before); n > before {
					t.Errorf("%d goroutines after the run, %d before", n, before)
				}
			})
		}
	}
}

// TestNoProcessesNoListeners checks the dependency closure of the
// benchmark: neither os/exec nor any network package is linked in, so
// nothing in it runs a command or opens a socket.
func TestNoProcessesNoListeners(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	out, err := exec.Command(goTool, "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	for _, p := range strings.Fields(string(out)) {
		switch {
		case p == "os/exec", p == "net", strings.HasPrefix(p, "net/"), p == "plugin":
			t.Errorf("the benchmark links %s", p)
		}
	}
}

// TestContract checks BENCHMARK.json against the workloads and metrics
// the program reports.
func TestContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEndMetrics)
	check("per_layer", c.PerLayer, layerMetrics)
}
