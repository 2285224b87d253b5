package main

import (
	"context"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile is the linearly interpolated q-quantile of ds (q in [0,1]).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + time.Duration(float64(s[hi]-s[lo])*(pos-float64(lo)))
}

// tail returns the higher of p99 and p90 that has at least ten samples
// beyond it, with its name; below 100 samples neither has, and the
// maximum is reported as "max".
func tail(ds []time.Duration) (time.Duration, string) {
	n := float64(len(ds))
	for _, p := range []struct {
		q    float64
		name string
	}{{0.99, "p99"}, {0.9, "p90"}} {
		if n*(1-p.q) >= 10 {
			return quantile(ds, p.q), p.name
		}
	}
	return quantile(ds, 1), "max"
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// runtimeCounters is a point-in-time read of the runtime's cumulative
// allocation, GC and CPU counters, taken through runtime/metrics so
// reading them never stops the world.
type runtimeCounters struct {
	allocObjects, allocBytes uint64 // tiny allocations included
	gcCycles                 uint64
	gcCPU, totalCPU          float64
}

var counterNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/heap/tiny/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readCounters() runtimeCounters {
	ms := make([]metrics.Sample, len(counterNames))
	for i, n := range counterNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	u := func(i int) uint64 {
		if ms[i].Value.Kind() == metrics.KindUint64 {
			return ms[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if ms[i].Value.Kind() == metrics.KindFloat64 {
			return ms[i].Value.Float64()
		}
		return 0
	}
	return runtimeCounters{allocObjects: u(0) + u(2), allocBytes: u(1), gcCycles: u(3), gcCPU: f(4), totalCPU: f(5)}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{
		allocObjects: a.allocObjects - b.allocObjects,
		allocBytes:   a.allocBytes - b.allocBytes,
		gcCycles:     a.gcCycles - b.gcCycles,
		gcCPU:        a.gcCPU - b.gcCPU,
		totalCPU:     a.totalCPU - b.totalCPU,
	}
}

// heapSampler records the peak of live heap objects by polling
// runtime/metrics (no stop-the-world) on its own goroutine; stop
// returns the peak once that goroutine has exited.
type heapSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  uint64
}

func startHeapSampler(ctx context.Context, every time.Duration) *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		ms := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(ms)
			if v := ms[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stopc:
				return
			case <-ctx.Done():
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampler and returns the peak heap in bytes. The peak
// is read only after the sampling goroutine has exited.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	h.wg.Wait()
	return h.peak
}

// settle runs a GC so that one phase's garbage is not collected on the
// next phase's clock.
func settle() { runtime.GC() }
