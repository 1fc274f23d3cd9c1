package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"time"

	"mpinet/internal/cluster"
	"mpinet/internal/dev"
	"mpinet/internal/metrics"
	"mpinet/internal/mpi"
	"mpinet/internal/msgtrace"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// The scale workloads: one 1024-rank world per interconnect on a 3-level
// radix-24 2:1 Clos, partitioned over two shards.
const (
	closRanks      = 1024
	closShards     = 2
	closRounds     = 16
	allreduceEvery = 4  // an 8 B Allreduce after every fourth exchange round
	traceEvery     = 16 // observed worlds trace one message in sixteen
)

// nic is one interconnect: its platform and the per-layer prefix its World.Run
// time is reported under.
type nic struct {
	layer string
	plat  func() cluster.Platform
}

var nics = []nic{{"verbs", cluster.IBA}, {"gm", cluster.Myri}, {"elan", cluster.QSN}}

// traffic is the generated input of one world: a ring over a seeded
// permutation of the ranks, and per round and sender a message size drawn
// uniformly from [T/2, 3T/2], where T is the interconnect's eager/rendezvous
// switch point, so about half the messages take each protocol.
type traffic struct {
	ring []int     // ranks in ring order
	pos  []int     // rank → index in ring
	size [][]int64 // [round][sender] payload bytes
	max  int64
}

func newTraffic(seed uint64, eager int64) *traffic {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	t := &traffic{ring: rng.Perm(closRanks), pos: make([]int, closRanks)}
	for i, r := range t.ring {
		t.pos[r] = i
	}
	// Sizes use their own stream so the permutation does not depend on T.
	srng := rand.New(rand.NewPCG(seed, uint64(eager)))
	for round := 0; round < closRounds; round++ {
		row := make([]int64, closRanks)
		for r := range row {
			row[r] = eager/2 + srng.Int64N(eager+1)
			t.max = max(t.max, row[r])
		}
		t.size = append(t.size, row)
	}
	return t
}

// body is the rank program: neighbour Sendrecv rounds alternating direction
// around the ring, with a periodic Allreduce. Every receive's Status is
// checked against what the sender was generated to send; mismatches are
// counted in bad (ranks on different shards run concurrently).
func (t *traffic) body(bad *atomic.Int64) func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		me, n := r.Rank(), len(t.ring)
		next, prev := t.ring[(t.pos[me]+1)%n], t.ring[(t.pos[me]+n-1)%n]
		sbuf, rbuf, red := r.Malloc(t.max), r.Malloc(t.max), r.Malloc(8)
		for round := 0; round < closRounds; round++ {
			dst, src := next, prev
			if round%2 == 1 {
				dst, src = prev, next
			}
			tag := 100 + round
			st := r.Sendrecv(sbuf.Slice(0, t.size[round][me]), dst, tag, rbuf, src, tag)
			if st.Err != nil || st.Source != src || st.Tag != tag || st.Size != t.size[round][src] {
				bad.Add(1)
			}
			if (round+1)%allreduceEvery == 0 {
				r.Allreduce(red)
			}
		}
	}
}

// worldReport is what one world run reports, including the counts that
// expose the classic/scale fork.
type worldReport struct {
	NIC            string  `json:"nic"`
	Observed       bool    `json:"observed"`
	ScaleMode      bool    `json:"scale_mode"`
	ShardsActive   int     `json:"shards_active"`
	Windows        uint64  `json:"pdes_windows"`
	Events         uint64  `json:"events"`
	EndPs          int64   `json:"end_ps"`
	QueueHighWater int     `json:"queue_high_water"`
	MemMBPerRank   float64 `json:"mem_mb_per_rank"`
	MsgtraceSpans  int     `json:"msgtrace_spans"`
	DriftPs        int64   `json:"observer_drift_ps"`
	Mismatches     int64   `json:"status_mismatches"`
	Err            string  `json:"error,omitempty"`

	build, newWorld, run time.Duration
	heapLive             uint64
}

// closWorkload runs the three worlds once per pass.
type closWorkload struct {
	observed bool
	inputs   []*traffic     // per nic
	bare     []*worldReport // observed only: the bare run of the same inputs
}

func newClos(seed uint64, observed bool) *closWorkload {
	c := &closWorkload{observed: observed}
	for _, n := range nics {
		// The switch point is the interconnect's own, read from an
		// endpoint of a throwaway two-node network.
		eager := n.plat().New(2).NewEndpoint(0).EagerThreshold()
		c.inputs = append(c.inputs, newTraffic(seed, eager))
	}
	return c
}

// prepare runs, for the observed workload, the bare worlds the observed
// ones are compared against, outside any timed region.
func (c *closWorkload) prepare(tr *tracer) []*worldReport {
	if !c.observed {
		return nil
	}
	for i, n := range nics {
		c.bare = append(c.bare, c.runWorld(tr, n, c.inputs[i], false))
	}
	return c.bare
}

func (c *closWorkload) pass(tr *tracer) passStats {
	ps := passStats{refs: []float64{refUnit().Seconds()}}
	for i, n := range nics {
		tr.begin("world." + n.plat().Name)
		w := c.runWorld(tr, n, c.inputs[i], c.observed)
		tr.end()
		ps.measured(w.run, w.Events)
		if c.observed && c.bare[i].Err == "" {
			w.DriftPs = w.EndPs - c.bare[i].EndPs
		}
		ps.worlds = append(ps.worlds, w)
		ps.setup += (w.build + w.newWorld).Seconds()
		ps.heapLive = max(ps.heapLive, float64(w.heapLive)/(1<<20))
		ps.layer("cluster.build_s", w.build.Seconds())
		ps.layer("mpi.new_world_s", w.newWorld.Seconds())
		ps.layer(n.layer+".run_s", w.run.Seconds())
	}
	return ps
}

// runWorld builds, runs and inspects one world. Only World.Run is inside the
// timed (and, when tracing, profiled) region; garbage from the previous
// world is collected before set-up so it is not charged to this one.
func (c *closWorkload) runWorld(tr *tracer, n nic, in *traffic, observed bool) *worldReport {
	runtime.GC()
	p := n.plat().With(cluster.Clos(3, 24, 2), cluster.WithShards(closShards))
	rep := &worldReport{NIC: p.Name, Observed: observed}

	var net dev.Network
	rep.build = tr.timed("cluster.Platform.New", func() { net = p.New(closRanks) })
	cfg := mpi.Config{Net: net, Procs: closRanks}
	if observed {
		cfg.Metrics = metrics.New()
		cfg.MsgTrace = msgtrace.New(traceEvery)
	}
	var w *mpi.World
	var err error
	rep.newWorld = tr.timed("mpi.NewWorld", func() { w, err = mpi.NewWorld(cfg) })
	if err != nil {
		rep.Err = err.Error()
		return rep
	}

	var bad atomic.Int64
	body := in.body(&bad)
	ev0 := sim.TotalDispatched()
	tr.startSegment()
	rep.run = tr.timed("mpi.World.Run", func() { err = w.Run(body) })
	tr.stopSegment(rep.run.Seconds(), sim.TotalDispatched()-ev0)
	if err != nil {
		rep.Err = err.Error()
	}
	rep.Mismatches = bad.Load()

	tr.timed("sim accessors", func() {
		rep.ScaleMode = w.ScaleMode()
		rep.EndPs = int64(w.Elapsed())
		eng := w.Engine()
		shards := []*sim.Engine{eng}
		if g := eng.Group(); g != nil {
			shards = shards[:0]
			for i := 0; i < g.Shards(); i++ {
				shards = append(shards, g.Shard(i))
			}
			rep.Windows = g.Windows()
		}
		for _, e := range shards {
			rep.Events += e.Dispatched()
			rep.QueueHighWater = max(rep.QueueHighWater, e.QueueHighWater())
			if e.Dispatched() > 0 {
				rep.ShardsActive++
			}
		}
		rep.MsgtraceSpans = len(w.MsgTrace().Spans())
	})
	tr.timed("mpi.World.MemoryUsage", func() {
		var sum int64
		for r := 0; r < closRanks; r++ {
			sum += w.MemoryUsage(r)
		}
		rep.MemMBPerRank = float64(sum) / closRanks / float64(units.MB)
	})

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.heapLive = ms.HeapAlloc
	runtime.KeepAlive(w)
	return rep
}

// failure describes why a world run counts as a failed operation, or "".
func (r *worldReport) failure() string {
	switch {
	case r.Err != "":
		return fmt.Sprintf("%s: run error: %s", r.NIC, r.Err)
	case r.Mismatches > 0:
		return fmt.Sprintf("%s: %d receives did not match the generated traffic", r.NIC, r.Mismatches)
	}
	return ""
}
