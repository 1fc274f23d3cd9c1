package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"
)

// span is one timed call the benchmark made into the simulator: its name,
// start and end in nanoseconds since the run began, and the index of the
// enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer times every call the benchmark makes into the simulator. With on
// set it also keeps a span per call in memory and CPU-profiles each timed
// region (a "segment"), folding the samples into per-layer CPU time. With on
// clear it only measures durations, which is what end-to-end metrics use.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int

	prof     bytes.Buffer
	rtStart  rtStats
	layerNs  map[string]int64
	cpuNs    int64   // all profiled CPU time
	segWall  float64 // seconds spent inside profiled segments
	events   uint64  // events dispatched inside profiled segments
	rt       rtStats // runtime/metrics deltas summed over segments
	profErrs int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), layerNs: map[string]int64{}}
}

// timed runs f and returns its host duration; traced, it records a span.
func (t *tracer) timed(name string, f func()) time.Duration {
	t.begin(name)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end()
	return d
}

// timedCall is timed for a call that returns a value.
func timedCall[T any](t *tracer, name string, f func() T) (v T) {
	t.timed(name, func() { v = f() })
	return v
}

func (t *tracer) begin(name string) {
	if !t.on {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
}

// startSegment begins a profiled timed region.
func (t *tracer) startSegment() {
	if !t.on {
		return
	}
	t.prof.Reset()
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
		t.profErrs++
	}
	t.rtStart = readRuntime()
}

// stopSegment ends a profiled region of wall seconds that dispatched events.
func (t *tracer) stopSegment(wall float64, events uint64) {
	if !t.on {
		return
	}
	t.rt.add(readRuntime().sub(t.rtStart))
	pprof.StopCPUProfile()
	t.segWall += wall
	t.events += events
	samples, err := parseProfile(t.prof.Bytes())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		t.profErrs++
		return
	}
	for _, s := range samples {
		t.layerNs[layerOf(s.stack)] += s.ns
		t.cpuNs += s.ns
	}
}

// writeSpans writes the kept spans as a JSON array.
func (t *tracer) writeSpans(file string) error {
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(file, data, 0o644)
}

// profileMetrics turns the profiled segments into per-layer figures: CPU
// nanoseconds per dispatched event for each layer, and the Go runtime's
// own costs per traced pass. GC and idle CPU come from the profile and the
// segments' wall time, so they cover exactly the timed regions.
func (t *tracer) profileMetrics(passes int, out map[string]metric) {
	perEvent := func(ns int64) float64 {
		if t.events == 0 {
			return 0
		}
		return float64(ns) / float64(t.events)
	}
	for _, l := range profileLayers {
		out[nsPerEventName(l)] = metric{perEvent(t.layerNs[l]), "ns"}
	}
	perPass := func(v float64) float64 {
		if passes == 0 {
			return 0
		}
		return v / float64(passes)
	}
	idle := float64(runtime.GOMAXPROCS(0))*t.segWall - float64(t.cpuNs)/1e9
	out["runtime.gc_cpu_s"] = metric{perPass(float64(t.layerNs["runtime.gc"]) / 1e9), "s"}
	out["runtime.idle_cpu_s"] = metric{perPass(math.Max(idle, 0)), "s"}
	out["runtime.gc_cycles"] = metric{perPass(float64(t.rt.gcCycles)), "count"}
	out["runtime.allocs_per_event"] = metric{perEvent(int64(t.rt.allocs)), "count"}
	out["runtime.alloc_bytes_per_event"] = metric{perEvent(int64(t.rt.allocBytes)), "B"}
	out["runtime.sched_latency_p99_us"] = metric{t.rt.schedP99() * 1e6, "us"}
}

// nsPerEventName names a layer's CPU cost metric: fabric.ns_per_event for a
// package, sim.heap_ns_per_event for a part of one.
func nsPerEventName(layer string) string {
	if strings.Contains(layer, ".") {
		return layer + "_ns_per_event"
	}
	return layer + ".ns_per_event"
}

// rtStats is the slice of runtime/metrics the benchmark reads around each
// profiled region.
type rtStats struct {
	gcCycles, allocs, allocBytes uint64
	schedCounts                  []uint64
	schedBuckets                 []float64
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/cycles/automatic:gc-cycles"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/sched/latencies:seconds"},
}

func readRuntime() rtStats {
	metrics.Read(rtSamples)
	s := rtStats{
		gcCycles:   rtSamples[0].Value.Uint64(),
		allocs:     rtSamples[1].Value.Uint64(),
		allocBytes: rtSamples[2].Value.Uint64(),
	}
	h := rtSamples[3].Value.Float64Histogram()
	s.schedCounts = append([]uint64(nil), h.Counts...)
	s.schedBuckets = h.Buckets
	return s
}

func (s rtStats) sub(o rtStats) rtStats {
	d := rtStats{
		gcCycles:     s.gcCycles - o.gcCycles,
		allocs:       s.allocs - o.allocs,
		allocBytes:   s.allocBytes - o.allocBytes,
		schedBuckets: s.schedBuckets,
		schedCounts:  make([]uint64, len(s.schedCounts)),
	}
	for i := range d.schedCounts {
		d.schedCounts[i] = s.schedCounts[i] - o.schedCounts[i]
	}
	return d
}

func (s *rtStats) add(o rtStats) {
	s.gcCycles += o.gcCycles
	s.allocs += o.allocs
	s.allocBytes += o.allocBytes
	if s.schedCounts == nil {
		s.schedCounts = make([]uint64, len(o.schedCounts))
		s.schedBuckets = o.schedBuckets
	}
	for i := range o.schedCounts {
		s.schedCounts[i] += o.schedCounts[i]
	}
}

// schedP99 is the 99th percentile of goroutine scheduling latency in
// seconds: the upper edge of the histogram bucket holding it.
func (s rtStats) schedP99() float64 {
	var total uint64
	for _, c := range s.schedCounts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range s.schedCounts {
		seen += c
		if seen >= want {
			hi := s.schedBuckets[i+1]
			if math.IsInf(hi, 1) {
				hi = s.schedBuckets[i]
			}
			return hi
		}
	}
	return 0
}
