package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"mpinet/internal/experiments"
	"mpinet/internal/report"
	"mpinet/internal/sim"
)

// suiteWorkload regenerates the quick figure suite as paperrepro -quick
// does, on one worker. Its inputs are the paper's fixed configurations, so
// the seed does not change them and the output digest is checked on every
// seed.
type suiteWorkload struct{}

// Set-up is timed over runnerBatches batches of runnerBuilds runner
// constructions each, and the pass reports the median batch (the last runner
// built runs the pass): one construction takes well under a microsecond, too
// little to time alone, and a batch must outlast the host's contention
// swings, which come and go within a tenth of a second (README.md).
const (
	runnerBatches = 9
	runnerBuilds  = 100000
)

func (suiteWorkload) pass(tr *tracer) passStats {
	var ps passStats
	runtime.GC()

	var r *experiments.Runner
	batches := make([]float64, runnerBatches)
	for b := range batches {
		batches[b] = tr.timed("experiments.NewRunner", func() {
			for i := 0; i < runnerBuilds; i++ {
				r = experiments.NewRunner(true, nil)
				r.Jobs = 1
			}
		}).Seconds() / runnerBuilds
	}
	ps.setup = median(batches)
	runtime.GC() // the discarded runners are set-up garbage, not the suite's

	var out bytes.Buffer
	var comps []report.Comparison
	phases := []struct {
		layer string
		run   func()
	}{
		{"experiments.micro_s", func() {
			comps = timedCall(tr, "experiments.Runner.MicroComparisons", r.MicroComparisons)
			out.WriteString(report.RenderComparisons("Anchors quoted in the paper's text", comps, 0.15))
			tr.timed("experiments.Runner.RunMicro", func() { r.RunMicro(&out) })
		}},
		{"experiments.apps_s", func() {
			out.WriteString(report.RenderComparisons("Class B times (s)",
				timedCall(tr, "experiments.Runner.Table2Comparisons", r.Table2Comparisons), 0.10))
			out.WriteString(report.RenderComparisons("Calls per size class",
				timedCall(tr, "experiments.Runner.Table1Comparisons", r.Table1Comparisons), 0.25))
			tr.timed("experiments.Runner.RunApps", func() { r.RunApps(&out) })
		}},
		{"experiments.extensions_s", func() {
			tr.timed("experiments.Runner.RunExtensions", func() { r.RunExtensions(&out) })
		}},
	}

	ps.refs = append(ps.refs, refUnit().Seconds())
	for _, ph := range phases {
		ps.attempted++
		ev0 := sim.TotalDispatched()
		tr.startSegment()
		tr.begin(ph.layer)
		d, err := runPhase(ph.run)
		tr.end()
		events := sim.TotalDispatched() - ev0
		tr.stopSegment(d.Seconds(), events)
		ps.measured(d, events)
		ps.layer(ph.layer, d.Seconds())
		if err != "" {
			ps.fail(ph.layer + ": " + err)
		}
	}

	sum := sha256.Sum256(out.Bytes())
	ps.digest = hex.EncodeToString(sum[:])
	ps.paperErrPct = medianAbsErrPct(comps)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ps.heapLive = float64(ms.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(r)
	return ps
}

// runPhase times one suite phase. The suite panics on a simulation error;
// that is a failed operation, not a crashed benchmark.
func runPhase(f func()) (d time.Duration, failure string) {
	start := time.Now()
	defer func() {
		d = time.Since(start)
		if v := recover(); v != nil {
			failure = fmt.Sprint(v)
		}
	}()
	f()
	return
}

// medianAbsErrPct is the median |sim − paper| / paper over the paper's
// quoted micro-benchmark anchors, in percent.
func medianAbsErrPct(comps []report.Comparison) float64 {
	errs := make([]float64, 0, len(comps))
	for _, c := range comps {
		errs = append(errs, 100*math.Abs(c.Delta()))
	}
	return median(errs)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
