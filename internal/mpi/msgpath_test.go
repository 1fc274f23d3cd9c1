package mpi

import (
	"cmp"
	"runtime"
	"runtime/debug"
	"testing"

	"mpinet/internal/cluster"
	"mpinet/internal/memreg"
	"mpinet/internal/units"
)

// msgPathRounds is R in the message-path gates unless a world sets its
// own: each world runs R and then 2R rounds, and the difference is what R
// rounds of traffic allocate — world construction and the warm-up of every
// free list cancel.
const msgPathRounds = 16

// msgPathWorld is one way of building the gate's world.
type msgPathWorld struct {
	name  string
	procs int
	cfg   func(p cluster.Platform, procs int) Config
	scale bool // the world must activate node domains
	// window is how many Isend/Irecv pairs a rank posts before its
	// Waitall (0 means 1).
	window int
	rounds int // R (0 means msgPathRounds)
}

// msgPathRun runs rounds rounds of the gate's traffic on a fresh world and
// returns the heap allocations of construction plus run, and the number of
// user-visible Requests the program created. Each round, every rank sends a
// tiny eager message, a threshold-sized eager message and a rendezvous
// message around a ring, once by Sendrecv and then window times by Isend,
// followed by as many Irecvs and one Waitall: every rank posts its sends
// before any receive, so a whole window of envelopes is in flight at once.
//
// The count is taken with the collector paused and on one host thread: a
// collection empties the runtime's own pools, and shard workers on several
// threads block on one another in a host-timing-dependent order, and either
// would refill those pools by a varying number of allocations that have
// nothing to do with the model.
func msgPathRun(t *testing.T, p cluster.Platform, mk msgPathWorld, rounds int) (allocs, requests int64) {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := MustWorld(mk.cfg(p, mk.procs))
	if w.ScaleMode() != mk.scale {
		t.Fatalf("%s/%s: ScaleMode() = %v, want %v", p.Name, mk.name, w.ScaleMode(), mk.scale)
	}
	eager := w.procs[0].ep.EagerThreshold()
	sizes := []int64{8, eager, 2 * eager}
	window := cmp.Or(mk.window, 1)
	err := w.Run(func(r *Rank) {
		n := r.Size()
		next, prev := (r.Rank()+1)%n, (r.Rank()-1+n)%n
		var sbufs, rbufs []memreg.Buf
		for _, size := range sizes {
			sbufs = append(sbufs, r.Malloc(size))
			rbufs = append(rbufs, r.Malloc(size))
		}
		reqs := make([]*Request, 0, 2*window)
		for i := 0; i < rounds; i++ {
			for k := range sizes {
				r.Sendrecv(sbufs[k], next, k, rbufs[k], prev, k)
				for j := 0; j < window; j++ {
					reqs = append(reqs, r.Isend(sbufs[k], next, k))
				}
				for j := 0; j < window; j++ {
					reqs = append(reqs, r.Irecv(rbufs[k], prev, k))
				}
				r.Waitall(reqs...)
				reqs = reqs[:0]
			}
		}
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("%s/%s, %d rounds: %v", p.Name, mk.name, rounds, err)
	}
	return int64(after.Mallocs - before.Mallocs), int64(rounds * mk.procs * 2 * window * len(sizes))
}

// checkMessagePath is the gate: R more rounds of point-to-point traffic may
// allocate no more than the Requests Isend and Irecv hand to the program.
// Envelopes, NIC operation records, fabric transfer records and host
// protocol steps are all recycled, so steady-state traffic allocates
// nothing else. The slack absorbs the few allocations that do not scale
// with the traffic but do not cancel exactly either: the event queue's
// blocks track its peak depth, which stale watchdog events move by a block
// or two, and a race-detector runtime allocates a few dozen objects of its
// own that differ between identical runs. A record allocated per message
// of any one kind — at least half as many as the Requests — still exceeds
// it.
func checkMessagePath(t *testing.T, worlds []msgPathWorld) {
	for _, p := range []cluster.Platform{cluster.IBA(), cluster.Myri(), cluster.QSN()} {
		for _, mk := range worlds {
			rounds := cmp.Or(mk.rounds, msgPathRounds)
			one, _ := msgPathRun(t, p, mk, rounds)
			two, requests := msgPathRun(t, p, mk, 2*rounds)
			budget := requests / 2 // the Requests of the extra R rounds
			if extra := two - one; extra > budget+budget/64+64 {
				t.Errorf("%s/%s: %d more rounds allocate %d times, %d beyond the %d user-visible Requests: %.3f per Request",
					p.Name, mk.name, rounds, extra, extra-budget, budget, float64(extra-budget)/float64(budget))
			}
		}
	}
}

// TestMessagePathZeroAlloc gates the point-to-point message path of
// single-engine worlds: a classic crossbar, the same crossbar with two
// ranks per node (the shared-memory channel carries the intra-node hops)
// and one with the per-wait watchdog armed.
func TestMessagePathZeroAlloc(t *testing.T) {
	crossbar := func(ppn int, timeout units.Time) func(cluster.Platform, int) Config {
		return func(p cluster.Platform, procs int) Config {
			return Config{Net: p.New((procs + ppn - 1) / ppn), Procs: procs, ProcsPerNode: ppn, Timeout: timeout}
		}
	}
	checkMessagePath(t, []msgPathWorld{
		{name: "crossbar", procs: 8, cfg: crossbar(1, 0)},
		{name: "crossbar-smp", procs: 8, cfg: crossbar(2, 0)},
		{name: "watchdog", procs: 8, cfg: crossbar(1, units.Second)},
	})
}

// TestMessagePathZeroAllocShards is the gate on node-domain worlds: a
// FatTree(24,2) split over four shards, where records are taken on the
// sender's engine and freed on the receiver's. In the windowed world, two
// shards of four ranks each, every rank posts 80 sends before receiving,
// so 320 envelopes are out on one engine at once: the free lists must keep
// every one of them, however many that is. Its rounds are ten times the
// messages of the other world's, so it runs R = 4.
func TestMessagePathZeroAllocShards(t *testing.T) {
	fattree := func(shards int) func(cluster.Platform, int) Config {
		return func(p cluster.Platform, procs int) Config {
			return Config{Net: p.With(cluster.FatTree(24, 2), cluster.WithShards(shards)).New(procs), Procs: procs}
		}
	}
	checkMessagePath(t, []msgPathWorld{
		{name: "fattree-shards4", procs: 32, scale: true, cfg: fattree(4)},
		{name: "fattree-shards2-window80", procs: 8, scale: true, cfg: fattree(2), window: 80, rounds: 4},
	})
}
