// Command perfbench is the repository benchmark. It runs one workload for a
// fixed host time, checks every simulated answer, and prints the result as
// one JSON line:
//
//	perfbench --workload paper_suite|clos_1k|clos_1k_observed --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics. With --trace 1 the
// run alternates untraced and traced passes; traced passes keep a span per
// simulator call and CPU-profile each timed region, and the result holds the
// per-layer metrics. End-to-end times are in units of a fixed reference
// workload timed beside them (ref.go), because the shared host's speed
// drifts more than most changes move them. The line before the result is a
// report: host fingerprint, per-world counts and reference checks.
// README.md describes the workloads and what each metric should move.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// defaultSeed is the seed the committed references were recorded with.
const defaultSeed = 1

// refNominalS is the nominal duration of one reference unit (ref.go), a
// round figure near the units of the 2-CPU Xeon VM the benchmark was
// written on, which averaged 124 ms over thirty 36 s runs. setup_s is
// reported in seconds on a host that runs a unit in exactly this time.
const refNominalS = 0.140

//go:embed references.json
var referencesJSON []byte

// references are the simulated answers at the default seed.
type references struct {
	Seed             uint64                           `json:"seed"`
	PaperSuiteSHA256 string                           `json:"paper_suite_sha256"`
	Worlds           map[string]map[string]worldRefer `json:"worlds"`
}

type worldRefer struct {
	EndPs  int64  `json:"end_ps"`
	Events uint64 `json:"events"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passStats is one pass over a workload: the three suite phases, or the
// three worlds.
type passStats struct {
	wall, setup, heapLive float64   // s, s, MB
	refs                  []float64 // s, the reference units run around the timed regions
	events                uint64
	layers                map[string]float64 // host seconds of timed calls, by per-layer metric name
	attempted             int
	failures              []string
	worlds                []*worldReport
	digest                string
	paperErrPct           float64
	traced                bool
}

func (p *passStats) layer(name string, s float64) {
	if p.layers == nil {
		p.layers = map[string]float64{}
	}
	p.layers[name] += s
}

// measured adds a timed region of d that dispatched events, and runs the
// reference unit that follows it.
func (p *passStats) measured(d time.Duration, events uint64) {
	p.wall += d.Seconds()
	p.events += events
	p.refs = append(p.refs, refUnit().Seconds())
}

func (p *passStats) fail(why string) { p.failures = append(p.failures, why) }

type workload interface {
	pass(tr *tracer) passStats
}

func main() {
	name := flag.String("workload", "", "paper_suite, clos_1k or clos_1k_observed")
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 20, "host seconds to measure")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	// One host thread: on a shared 2-CPU host, a second thread's wake-ups
	// dominated the Clos workloads' run-to-run spread (README.md).
	runtime.GOMAXPROCS(1)
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	var refs references
	if err := json.Unmarshal(referencesJSON, &refs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: references.json:", err)
		os.Exit(2)
	}

	var w workload
	switch *name {
	case "paper_suite":
		w = suiteWorkload{}
	case "clos_1k", "clos_1k_observed":
		w = newClos(*seed, *name == "clos_1k_observed")
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}

	host := fingerprint()
	tr := newTracer()
	rep := runReport{Workload: *name, Seed: *seed, Host: host}
	check := checker{refs: refs, workload: *name, useRefs: *seed == refs.Seed}

	if c, ok := w.(*closWorkload); ok {
		for _, wr := range c.prepare(tr) {
			// The bare worlds of the observed workload are clos_1k's.
			check.world("clos_1k", wr)
		}
	}

	refUnit() // fault in the reference workload's state before anything is timed
	var passes []passStats
	start := time.Now()
	budget := time.Duration(*seconds * float64(time.Second))
	for i := 0; ; i++ {
		t0 := time.Now()
		tr.on = *trace == 1 && i%2 == 1
		p := w.pass(tr)
		p.traced = tr.on
		tr.on = false
		passes = append(passes, p)
		check.pass(p)
		enough := *trace == 0 || i >= 1
		if enough && time.Since(start)+time.Since(t0) > budget {
			break
		}
	}

	res := result{Attempted: check.attempted, Failed: check.failed, Metrics: map[string]metric{}}
	res.Correct = check.failed == 0 && len(check.problems) == 0
	var untraced, traced []passStats
	for _, p := range passes {
		if p.traced {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	if len(untraced) > 1 {
		// The first pass warms caches and the heap: it is checked but
		// not measured.
		untraced = untraced[1:]
	}
	last := passes[len(passes)-1]
	rep.Passes, rep.TracedPasses = len(untraced), len(traced)
	for _, p := range passes {
		rep.PassWallS = append(rep.PassWallS, p.wall)
		rep.PassSetupS = append(rep.PassSetupS, p.setup)
		rep.RefUnitS = append(rep.RefUnitS, p.refs...)
	}
	rep.Worlds = last.worlds
	rep.Digest = last.digest
	rep.Problems = check.problems
	rep.ReferencesChecked = check.useRefs
	model := modelMetrics(last)
	rep.Model = model

	// The host's speed while the measured passes ran: the mean of the
	// reference units run around their timed regions. Means, not medians,
	// so that contention that comes and goes faster than a region averages
	// out the same way on both sides of the ratio.
	var wall, events, refSum float64
	var refN int
	for _, p := range untraced {
		wall += p.wall
		events += float64(p.events)
		for _, r := range p.refs {
			refSum += r
			refN++
		}
	}
	refUnitS := refSum / float64(refN)
	rep.WallS = medianOf(untraced, func(p passStats) float64 { return p.wall })
	if wall > 0 { // else every world failed before running
		rep.EventsPerS = events / wall
	}
	if *trace == 0 {
		res.Metrics["wall_ref"] = metric{wall / float64(len(untraced)) / refUnitS, "ref"}
		res.Metrics["events_per_ref"] = metric{rep.EventsPerS * refUnitS, "1/ref"}
		res.Metrics["setup_s"] = metric{medianOf(untraced, func(p passStats) float64 { return p.setup }) * refNominalS / refUnitS, "s"}
		res.Metrics["heap_live_mb"] = metric{medianOf(untraced, func(p passStats) float64 { return p.heapLive }), "MB"}
	} else {
		layerMetrics(res.Metrics, tr, traced, model, host)
		res.Metrics["host.wall_s"] = metric{rep.WallS, "s"}
		res.Metrics["host.ref_unit_s"] = metric{refUnitS, "s"}
		overhead := medianOf(traced, func(p passStats) float64 { return p.wall }) -
			medianOf(untraced, func(p passStats) float64 { return p.wall })
		res.Metrics["trace.overhead_s"] = metric{overhead, "s"}
		rep.TraceOverheadS = &overhead
		if tr.profErrs > 0 {
			res.Correct = false
			rep.Problems = append(rep.Problems, fmt.Sprintf("%d CPU profile segments failed", tr.profErrs))
		}
		file := filepath.Join(".bench_out", fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
		if err := tr.writeSpans(file); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
		} else {
			rep.SpansFile = file
		}
	}

	for _, p := range rep.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	printJSON(map[string]runReport{"perfbench": rep})
	printJSON(res)
}

// runReport is the line printed before the result: everything a reader needs
// to interpret the numbers, kept out of the result so the result holds
// only metrics.
type runReport struct {
	Workload          string         `json:"workload"`
	Seed              uint64         `json:"seed"`
	Host              hostInfo       `json:"host"`
	Passes            int            `json:"untraced_passes"`
	TracedPasses      int            `json:"traced_passes"`
	WallS             float64        `json:"wall_s"`       // host seconds, median measured pass
	EventsPerS        float64        `json:"events_per_s"` // per host second, over the measured passes
	PassWallS         []float64      `json:"pass_wall_s"`
	PassSetupS        []float64      `json:"pass_setup_s"`
	RefUnitS          []float64      `json:"ref_unit_s"`
	Worlds            []*worldReport `json:"worlds,omitempty"`
	Digest            string         `json:"output_sha256,omitempty"`
	Model             modelOutputs   `json:"model"`
	ReferencesChecked bool           `json:"references_checked"`
	Problems          []string       `json:"problems,omitempty"`
	TraceOverheadS    *float64       `json:"trace_overhead_s,omitempty"`
	SpansFile         string         `json:"spans_file,omitempty"`
}

// modelOutputs are simulated (not host) outputs, fixed for a seed; each
// reads 0 on the workloads it does not apply to.
type modelOutputs struct {
	PaperErrPct     float64 `json:"paper_err_pct"`
	SimMemMBPerRank float64 `json:"sim_mem_mb_per_rank"`
}

func modelMetrics(last passStats) modelOutputs {
	m := modelOutputs{PaperErrPct: last.paperErrPct}
	for _, wr := range last.worlds {
		m.SimMemMBPerRank += wr.MemMBPerRank / float64(len(last.worlds))
	}
	return m
}

// layerMetrics fills the per-layer result from the traced passes.
func layerMetrics(out map[string]metric, tr *tracer, traced []passStats, model modelOutputs, host hostInfo) {
	tr.profileMetrics(len(traced), out)
	for _, n := range []string{
		"cluster.build_s", "mpi.new_world_s", "verbs.run_s", "gm.run_s", "elan.run_s",
		"experiments.micro_s", "experiments.apps_s", "experiments.extensions_s",
	} {
		out[n] = metric{medianOf(traced, func(p passStats) float64 { return p.layers[n] }), "s"}
	}
	out["sim.events"] = metric{medianOf(traced, func(p passStats) float64 { return float64(p.events) }), "count"}

	// Fork and PDES counts from the last traced pass's worlds. The suite
	// builds its worlds internally, where the benchmark cannot see them:
	// its runner has no shards, so every engine is serial and single-shard.
	last := traced[len(traced)-1]
	shardsActive, scale, windows, qhw, spans, drift := 1.0, 0.0, 0.0, 0.0, 0.0, 0.0
	if n := len(last.worlds); n > 0 {
		shardsActive = 0
		for _, w := range last.worlds {
			shardsActive += float64(w.ShardsActive) / float64(n)
			if w.ScaleMode {
				scale++
			}
			windows += float64(w.Windows)
			qhw = max(qhw, float64(w.QueueHighWater))
			spans += float64(w.MsgtraceSpans)
			drift += float64(abs(w.DriftPs))
		}
	}
	out["sim.shards_active"] = metric{shardsActive, "count"}
	out["mpi.scale_mode"] = metric{scale, "count"}
	out["sim.pdes_windows"] = metric{windows, "count"}
	out["sim.events_per_window"] = metric{0, "count"}
	if windows > 0 {
		out["sim.events_per_window"] = metric{float64(last.events) / windows, "count"}
	}
	out["sim.queue_high_water"] = metric{qhw, "count"}
	out["msgtrace.spans"] = metric{spans, "count"}
	out["mpi.observer_drift_ps"] = metric{drift, "ps"}
	out["paper_err_pct"] = metric{model.PaperErrPct, "%"}
	out["sim_mem_mb_per_rank"] = metric{model.SimMemMBPerRank, "MB"}
	out["host.engine_call_ns"] = metric{host.EngineCallNs, "ns"}
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func medianOf(ps []passStats, f func(passStats) float64) float64 {
	v := make([]float64, len(ps))
	for i, p := range ps {
		v[i] = f(p)
	}
	return median(v)
}

func printJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
}

// checker is the correctness gate: every operation's failures, plus the
// default seed's recorded answers.
type checker struct {
	refs              references
	workload          string
	useRefs           bool
	attempted, failed int
	problems          []string
}

func (c *checker) pass(p passStats) {
	c.attempted += p.attempted
	c.failed += len(p.failures)
	c.problems = append(c.problems, p.failures...)
	if p.digest != "" && p.digest != c.refs.PaperSuiteSHA256 {
		c.failed++
		c.problems = append(c.problems, fmt.Sprintf("paper suite output sha256 %s, want %s", p.digest, c.refs.PaperSuiteSHA256))
	}
	for _, w := range p.worlds {
		c.world(c.workload, w)
	}
}

// world counts one world run as an operation and checks it.
func (c *checker) world(workload string, w *worldReport) {
	c.attempted++
	why := w.failure()
	if why == "" && c.useRefs {
		ref, ok := c.refs.Worlds[workload][w.NIC]
		switch {
		case !ok:
			why = fmt.Sprintf("%s: no reference for %s", w.NIC, workload)
		case ref.EndPs != w.EndPs || ref.Events != w.Events:
			why = fmt.Sprintf("%s %s: end %d ps / %d events, want %d ps / %d events",
				workload, w.NIC, w.EndPs, w.Events, ref.EndPs, ref.Events)
		}
	}
	if why != "" {
		c.failed++
		c.problems = append(c.problems, why)
	}
}
