package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// goRuntime is the Go runtime's own ledger for one timed pass of the
// process that ran it: share of CPU spent in the garbage collector,
// bytes and objects allocated, and the peak of live heap objects
// (sampled every heapSampleEvery).
type goRuntime struct {
	GCCPUFrac  float64 `json:"gc_cpu_frac"`
	AllocMB    float64 `json:"alloc_mb"`
	AllocsM    float64 `json:"allocs_m"`
	HeapPeakMB float64 `json:"heap_peak_mb"`
}

const heapSampleEvery = 5 * time.Millisecond

var goMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/memory/classes/heap/objects:bytes",
}

func readGoMetrics() []float64 {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindFloat64:
			out[i] = x.Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(x.Value.Uint64())
		}
	}
	return out
}

// goSampler measures a pass; stop returns its goRuntime.
type goSampler struct {
	start []float64
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  float64
}

func startGoRuntime() *goSampler {
	g := &goSampler{start: readGoMetrics(), stopc: make(chan struct{})}
	g.peak = g.start[4]
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-g.stopc:
				return
			case <-t.C:
				g.peak = max(g.peak, readGoMetrics()[4])
			}
		}
	}()
	return g
}

func (g *goSampler) stop() goRuntime {
	close(g.stopc)
	g.wg.Wait()
	end := readGoMetrics()
	g.peak = max(g.peak, end[4])
	var r goRuntime
	if cpu := end[1] - g.start[1]; cpu > 0 {
		r.GCCPUFrac = (end[0] - g.start[0]) / cpu
	}
	r.AllocMB = (end[2] - g.start[2]) / (1 << 20)
	r.AllocsM = (end[3] - g.start[3]) / 1e6
	r.HeapPeakMB = g.peak / (1 << 20)
	return r
}
