// Conservative parallel discrete-event execution: a Sharded group runs N
// engines (shards) in lockstep windows bounded by cross-shard lookahead.
//
// The synchronization protocol is the classic bounded-time-window scheme
// (YAWNS-style), refined with per-shard window caps. Each round the
// coordinator reads every shard's next event time t_j and gives shard i the
// half-open window [t_i, cap_i), where
//
//	cap_i = min over populated shards j != i of (t_j + D(j, i))
//
// and D is the all-pairs minimum lookahead distance over the edge graph
// (built by one Floyd-Warshall pass per Run). D(j, i) bounds how soon
// anything shard j dispatches can causally reach shard i along any relay
// chain, because cross-shard messages are buffered until the window
// barrier: within a window a shard only consumes events it already held, so
// a chain j -> k -> i spans at least one barrier per hop and accumulates at
// least the lookahead of every edge it rides. Messages a shard sends
// mid-window re-bound its own cap (SendTo shrinks it to the send's arrival
// plus the distance back), which covers echoes through shards that looked
// empty at planning time. Shards whose next event lies at or beyond their
// cap skip the window entirely — no worker wake, no barrier participation —
// so loosely coupled shard pairs coalesce many tight global windows into
// few wide per-shard ones.
//
// At the window barrier the buffered cross-shard messages are committed in
// (at, source shard, source sequence) order; the destination stamps its own
// fresh sequence numbers in that order, so the merged event order is a pure
// function of the model and the byte-identical replay contract holds at
// every shard count. Then the free-list records released during the window
// on a shard other than their home go back to their home's list (see
// recycle.go); that moves no event and touches no clock.
//
// When only one shard has pending events there is nothing to synchronize
// with: the solo shard runs an unbounded window, dynamically re-bounded by
// its first cross-shard send (the earliest possible causal echo is
// sendAt + L). A world whose traffic all lives on one shard therefore runs
// in essentially one window — the overhead of -shards N on an unpartitioned
// model is a handful of comparisons, not a window per lookahead quantum.
//
// Determinism rules for this file (enforced by scripts/check.sh): no wall
// clock, no global mutable counters — every counter lives on a shard or on
// the group and is merged deterministically at barriers.
package sim

import (
	"cmp"
	"fmt"
	"slices"

	"mpinet/internal/metrics"
)

// maxTime is the sentinel window cap meaning "unbounded".
const maxTime = Time(1) << 62

// xmsg is one buffered cross-shard message: a typed event plus the
// (source shard, source sequence) pair that fixes its commit position.
type xmsg struct {
	at     Time
	src    int
	srcSeq uint64
	dst    int
	a, b   int64
	h      Handler
}

// Sharded is a group of engines advanced together by a conservative
// window scheduler. Construct with NewSharded, place model state on the
// shards (Shard(i)), wire cross-shard edges with SendTo, and drive the
// whole group with Run/RunUntil — either on the group or on any member
// engine (member Run delegates here, so code written against one Engine
// works unchanged as shard 0 of a group).
//
// Like Engine, a Sharded group is single-client: one Run at a time, and
// all model mutation happens on engine goroutines the scheduler controls.
type Sharded struct {
	shards []*Engine
	la     Time   // default lookahead for every cross-shard edge
	edges  []Time // per-edge overrides, len n*n, -1 = use default
	outbox [][]xmsg
	inbox  []xmsg // commit scratch, reused across windows

	// dmat is the all-pairs minimum lookahead distance (len n*n, row-major
	// [src][dst]), rebuilt by each Run from the edge configuration; nexts and
	// caps are the per-window planning scratch (shard → next event time /
	// window cap), reused across windows.
	dmat  []Time
	nexts []Time
	caps  []Time

	workers []shardWorker
	await   []int // worker shard indices launched this window (scratch)
	windows uint64
	running bool
}

// shardWorker is one shard's persistent window-dispatch goroutine. The
// coordinator writes cap/la, signals start, and reads fail after done — the
// channel operations order every access, so no field needs atomics.
type shardWorker struct {
	start chan windowBounds
	done  chan interface{} // the window's captured failure, nil if none
}

type windowBounds struct {
	cap Time
}

// NewSharded returns a group of n engines with the given default lookahead
// for every cross-shard edge (override per edge with SetEdgeLookahead).
// n == 1 is the serial fast path: no coordinator, no barrier, the plain
// engine loop.
func NewSharded(n int, lookahead Time) *Sharded {
	if n < 1 {
		panic(fmt.Sprintf("sim: NewSharded with %d shards", n))
	}
	s := &Sharded{
		shards: make([]*Engine, n),
		la:     lookahead,
		edges:  make([]Time, n*n),
		outbox: make([][]xmsg, n),
	}
	for i := range s.edges {
		s.edges[i] = -1
	}
	for i := 0; i < n; i++ {
		e := New()
		e.shard = i
		if n > 1 {
			e.owner = s
		}
		s.shards[i] = e
	}
	return s
}

// Shards reports the group's shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Shard returns member engine i.
func (s *Sharded) Shard(i int) *Engine { return s.shards[i] }

// Windows reports how many synchronization windows the last/current run has
// executed — the scheduler-overhead measure (1 for a fully solo run).
func (s *Sharded) Windows() uint64 { return s.windows }

// Dispatched reports the total events dispatched across all shards.
func (s *Sharded) Dispatched() uint64 {
	var n uint64
	for _, e := range s.shards {
		n += e.dispatched
	}
	return n
}

// SetLookahead sets the default lookahead for every cross-shard edge. The
// effective minimum must be positive when more than one shard holds events;
// Run fails typed (*ZeroLookaheadError) otherwise.
func (s *Sharded) SetLookahead(la Time) { s.la = la }

// SetEdgeLookahead overrides the lookahead for the directed edge src→dst.
func (s *Sharded) SetEdgeLookahead(src, dst int, la Time) {
	s.edges[src*len(s.shards)+dst] = la
}

// edgeLookahead is the effective lookahead for src→dst.
func (s *Sharded) edgeLookahead(src, dst int) Time {
	if v := s.edges[src*len(s.shards)+dst]; v >= 0 {
		return v
	}
	return s.la
}

// minLookahead is the smallest effective lookahead over all cross-shard
// edges, plus the edge that attains it.
func (s *Sharded) minLookahead() (la Time, src, dst int) {
	n := len(s.shards)
	la, src, dst = maxTime, 0, 1
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if v := s.edgeLookahead(i, j); v < la {
				la, src, dst = v, i, j
			}
		}
	}
	return la, src, dst
}

// Run advances the whole group until every shard's queue is empty. Blocked
// processes remaining on any shard yield an aggregate DeadlockError; a
// process panic on any shard re-panics the lowest-numbered failing shard's
// value (deterministic even when several shards fail in one window).
func (s *Sharded) Run() error { return s.RunUntil(-1) }

// RunUntil is Run with a horizon, with Engine.RunUntil's contract lifted to
// the group: events at exactly limit still run, every shard's clock lands on
// limit, and blocked processes are not an error when the horizon was hit.
func (s *Sharded) RunUntil(limit Time) error {
	n := len(s.shards)
	if n == 1 {
		return s.shards[0].runSerial(limit)
	}
	if s.running {
		panic("sim: Run re-entered")
	}
	s.running = true
	s.windows = 0
	start := s.Dispatched()
	defer func() {
		s.running = false
		addTotalDispatched(s.Dispatched() - start)
	}()

	// A zero (or negative) lookahead edge would make the safe window empty:
	// the scheduler could never advance while two shards hold events. Fail
	// typed up front instead of spinning.
	la, lsrc, ldst := s.minLookahead()
	if la <= 0 {
		return &ZeroLookaheadError{Src: lsrc, Dst: ldst, Lookahead: la}
	}
	s.buildDistances()

	s.startWorkers()
	defer s.stopWorkers()

	for {
		// Window planning: T is the earliest pending event group-wide;
		// active counts shards that hold any events at all.
		T := maxTime
		active := 0
		for i, e := range s.shards {
			t, ok := e.nextEventAt()
			if !ok {
				s.nexts[i] = maxTime
				continue
			}
			s.nexts[i] = t
			active++
			if t < T {
				T = t
			}
		}
		if T == maxTime {
			break // drained
		}
		if limit >= 0 && T > limit {
			for _, e := range s.shards {
				e.now = limit
			}
			return nil
		}
		// Per-shard caps: each populated shard may run to the earliest
		// instant another populated shard could causally touch it. The shard
		// holding T always has t_i < cap_i (distances are positive), so every
		// window makes progress; shards capped at or below their next event
		// skip the window entirely.
		n := len(s.shards)
		for i := range s.caps {
			if s.nexts[i] == maxTime {
				s.caps[i] = 0
				continue
			}
			c := maxTime
			if active > 1 {
				for j := 0; j < n; j++ {
					if j == i || s.nexts[j] == maxTime {
						continue
					}
					if v := s.nexts[j] + s.dmat[j*n+i]; v < c {
						c = v
					}
				}
			}
			if limit >= 0 && (c < 0 || c > limit) {
				c = limit + 1 // events at exactly limit run; cap is exclusive
			}
			s.caps[i] = c
		}
		s.windows++
		s.runWindow()
		s.commit()
		s.returnRecords()
	}

	// Drained: aggregate the per-shard deadlock views exactly as the serial
	// engine reports its own (names sorted, At = the furthest clock).
	var at Time
	var names []string
	for _, e := range s.shards {
		if e.now > at {
			at = e.now
		}
		for p := range e.procs {
			names = append(names, fmt.Sprintf("%s (blocked: %s)", p.name, p.blockedOn))
		}
	}
	if len(names) > 0 {
		slices.Sort(names)
		return &DeadlockError{At: at, Procs: names}
	}
	return nil
}

// buildDistances computes the all-pairs minimum lookahead distance over the
// cross-shard edge graph (one Floyd-Warshall pass — shard counts are small)
// and hands every engine its echo-distance column. dmat[j*n+i] bounds how
// soon anything shard j does can causally reach shard i along any relay
// chain: every hop of such a chain crosses a window barrier and pays its
// edge's lookahead. Rebuilt per Run so SetLookahead/SetEdgeLookahead between
// runs take effect.
func (s *Sharded) buildDistances() {
	n := len(s.shards)
	if s.dmat == nil {
		s.dmat = make([]Time, n*n)
		s.nexts = make([]Time, n)
		s.caps = make([]Time, n)
	}
	d := s.dmat
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				d[i*n+j] = 0
			} else {
				d[i*n+j] = s.edgeLookahead(i, j)
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := d[i*n+k]
			row := d[k*n : k*n+n]
			for j, dkj := range row {
				if v := dik + dkj; v < d[i*n+j] {
					d[i*n+j] = v
				}
			}
		}
	}
	for i, e := range s.shards {
		if e.echoDist == nil {
			e.echoDist = make([]Time, n)
		}
		for dst := 0; dst < n; dst++ {
			e.echoDist[dst] = d[dst*n+i]
		}
	}
}

// runWindow dispatches one window on every shard whose next event lies
// before its cap: the lowest-numbered participant inline on the coordinator
// goroutine, the rest on their persistent workers. Failures are collected
// and the lowest-numbered shard's is re-panicked, matching the serial
// engine's panic-out-of-Run behavior deterministically.
func (s *Sharded) runWindow() {
	inline := -1
	s.await = s.await[:0]
	for i := range s.shards {
		if s.nexts[i] >= s.caps[i] {
			continue
		}
		if inline < 0 {
			inline = i
			continue
		}
		s.workers[i].start <- windowBounds{cap: s.caps[i]}
		s.await = append(s.await, i)
	}
	failShard := -1
	var failure interface{}
	if f := s.shards[inline].runWindow(s.caps[inline]); f != nil {
		failShard, failure = inline, f
	}
	for _, i := range s.await {
		if f := <-s.workers[i].done; f != nil && (failShard < 0 || i < failShard) {
			failShard, failure = i, f
		}
	}
	if failure != nil {
		panic(failure)
	}
}

// commit drains every outbox and delivers the messages to their destination
// shards in (at, src, srcSeq) order — a total order fixed by the model, so
// the destination sequence numbers (stamped here by enqueue) are identical
// no matter how the window's goroutines interleaved.
func (s *Sharded) commit() {
	s.inbox = s.inbox[:0]
	for i := range s.outbox {
		s.inbox = append(s.inbox, s.outbox[i]...)
		s.outbox[i] = s.outbox[i][:0]
	}
	if len(s.inbox) == 0 {
		return
	}
	// slices.SortFunc with a package-level comparator: unlike a sort.Slice
	// closure this allocates nothing, and the commit path runs once per
	// window edge on the coordinator's critical path.
	slices.SortFunc(s.inbox, cmpXmsg)
	for i := range s.inbox {
		m := &s.inbox[i]
		d := s.shards[m.dst]
		if m.at < d.now {
			// Lookahead promised this could not happen; a violation here is
			// a scheduler bug, not a model bug.
			panic(&CausalityError{Src: m.src, Dst: m.dst, At: m.at, Now: d.now})
		}
		d.enqueue(event{at: m.at, a: m.a, b: m.b, h: m.h})
		*m = xmsg{} // release the handler reference
	}
}

// cmpXmsg is commit's total order: (at, source shard, source sequence) — a
// pure function of the model, independent of goroutine interleaving.
func cmpXmsg(a, b xmsg) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.src, b.src); c != 0 {
		return c
	}
	return cmp.Compare(a.srcSeq, b.srcSeq)
}

// startWorkers launches one persistent dispatch goroutine per shard. A
// goroutine per window would dominate the per-window cost; persistent
// workers make a window two channel operations per participant.
func (s *Sharded) startWorkers() {
	s.workers = make([]shardWorker, len(s.shards))
	for i := range s.workers {
		s.workers[i] = shardWorker{
			start: make(chan windowBounds),
			done:  make(chan interface{}),
		}
		go func(e *Engine, w shardWorker) {
			// A process's runtime.Goexit ends this goroutine inside
			// runWindow (iter.Pull re-raises it on the resuming
			// goroutine). Hand the coordinator the typed failure the
			// process left, or it would block on done forever.
			defer func() {
				if f := e.failure; f != nil {
					e.failure = nil
					w.done <- f
				}
			}()
			for b := range w.start {
				w.done <- e.runWindow(b.cap)
			}
		}(s.shards[i], s.workers[i])
	}
}

// stopWorkers shuts the persistent goroutines down.
func (s *Sharded) stopWorkers() {
	for i := range s.workers {
		close(s.workers[i].start)
	}
	s.workers = nil
}

// Instrument registers the group-wide engine health metrics in m — the same
// probe set a serial engine registers, aggregated across shards (counts and
// times sum, the queue high-water takes the max), so a single-domain world
// snapshots byte-identically at any shard count.
func (s *Sharded) Instrument(m *metrics.Registry) {
	if m == nil {
		return
	}
	m.ProbeCount("engine/events_dispatched", func() int64 { return int64(s.Dispatched()) })
	m.ProbeGauge("engine/queue_high_water", func() int64 {
		var hw int
		for _, e := range s.shards {
			if e.qhw > hw {
				hw = e.qhw
			}
		}
		return int64(hw)
	})
	m.ProbeCount("engine/timer_compactions", func() int64 {
		var n uint64
		for _, e := range s.shards {
			n += e.compactions
		}
		return int64(n)
	})
	m.ProbeTime("engine/blocked_time", func() Time {
		var t Time
		for _, e := range s.shards {
			t += e.blocked
		}
		return t
	})
	m.ProbeTime("engine/slept_time", func() Time {
		var t Time
		for _, e := range s.shards {
			t += e.slept
		}
		return t
	})
}

// Partition is a node/switch → shard placement for an N-node world: nodes
// are split into contiguous blocks (locality: neighboring ranks share a
// shard) and the switch domain — the crossing point of every cross-node
// message — anchors shard 0 with the coordinator's inline dispatch.
type Partition struct {
	Shards      int
	NodeShard   []int // node index → shard
	SwitchShard int
}

// PartitionNodes computes the contiguous-block placement of nodes onto
// shards. Shard counts above the node count leave trailing shards empty;
// they cost nothing (an empty shard never participates in a window).
func PartitionNodes(nodes, shards int) Partition {
	if shards < 1 {
		shards = 1
	}
	p := Partition{Shards: shards, NodeShard: make([]int, nodes)}
	for i := range p.NodeShard {
		p.NodeShard[i] = i * shards / nodes
	}
	return p
}

// ZeroLookaheadError is returned by Run when the group's minimum cross-shard
// lookahead is not positive: the conservative window would be empty and the
// scheduler could never advance two populated shards. It names one offending
// edge. This is the typed failure the deadlock-watchdog tests demand —
// misconfiguration must fail fast, never hang.
type ZeroLookaheadError struct {
	Src, Dst  int
	Lookahead Time
}

func (e *ZeroLookaheadError) Error() string {
	return fmt.Sprintf("sim: cross-shard lookahead %v on edge %d->%d; conservative windows need a positive minimum lookahead",
		e.Lookahead, e.Src, e.Dst)
}

// LookaheadError is the panic value of a SendTo whose delay undercuts the
// configured lookahead of its edge — the model claimed a cross-shard hop
// faster than the latency floor the scheduler was promised.
type LookaheadError struct {
	Src, Dst         int
	Delay, Lookahead Time
}

func (e *LookaheadError) Error() string {
	return fmt.Sprintf("sim: SendTo %d->%d with delay %v below the edge lookahead %v",
		e.Src, e.Dst, e.Delay, e.Lookahead)
}

// CausalityError is the panic value of a window commit that would deliver a
// message into a destination shard's past. The lookahead discipline makes
// this unreachable; reaching it means the scheduler itself is broken, so it
// is an invariant check, not a recoverable condition.
type CausalityError struct {
	Src, Dst int
	At, Now  Time
}

func (e *CausalityError) Error() string {
	return fmt.Sprintf("sim: cross-shard message %d->%d at %v would land in the destination's past (now %v)",
		e.Src, e.Dst, e.At, e.Now)
}
