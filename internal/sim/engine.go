// Package sim implements the deterministic discrete-event simulation engine
// that the interconnect, bus and MPI models run on.
//
// The engine owns a virtual clock (picosecond resolution, see
// internal/units) and a priority queue of events ordered by (time, sequence
// number). Determinism is structural: no wall-clock reads, ties are broken
// by schedule order, and simulated processes are cooperatively scheduled so
// at most one of them executes at any instant.
//
// Two styles of model code coexist:
//
//   - Callback events (Schedule / At) for hardware state machines: a DMA
//     completion, a packet arriving at a switch port.
//   - Processes (Spawn) for software: an MPI rank executing a benchmark is a
//     goroutine that blocks on simulated conditions and sleeps for simulated
//     compute time, reading as straight-line code.
//
// Events come in two physical forms. Schedule/At take a func() — the
// convenient form, which heap-allocates a closure whenever the callback
// captures state. Call/CallAt take a Handler plus two integer arguments —
// the hot-path form: the handler is a long-lived model object (a transfer
// pipeline, a process, a health monitor), so scheduling it allocates
// nothing. Park/wake of every process, every chunk hop of every
// fabric.Transfer and every rail heartbeat tick run on typed events; see
// docs/MODEL.md §15 for the performance model.
package sim

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync/atomic"

	"mpinet/internal/metrics"
	"mpinet/internal/units"
)

// Time re-exports the simulated time type for convenience.
type Time = units.Time

// Handler is the typed-event target: a pre-allocated model object whose
// HandleEvent method the engine invokes with the two integer arguments
// given at schedule time. Because the handler already exists and the
// arguments travel inside the event record, scheduling one allocates
// nothing — this is what keeps the per-chunk and park/wake paths
// allocation-free where a closure would heap-allocate per event.
type Handler interface {
	HandleEvent(a, b int64)
}

// event is one occurrence in transit between a schedule call and its
// dispatch. Every callback form funnels into the Handler word: model
// objects and processes implement Handler directly, and bare func()
// callbacks ride as Func — a func value is pointer-shaped, so the
// interface conversion does not box. The current-instant FIFO lane stores
// events whole; the radix queue splits each into a pointer-free time key
// and a slab record (see eventHeap).
type event struct {
	at   Time
	seq  uint64
	a, b int64 // HandleEvent arguments; zero for func() events
	h    Handler
}

// Func adapts a plain callback to the Handler interface. Named func types
// are stored directly in an interface's data word (no allocation), so
// Schedule/At — and any Callback built from a Func — pay only for the
// closure the caller already built. Hot paths use model objects instead.
type Func func()

// HandleEvent implements Handler by calling the wrapped func.
func (f Func) HandleEvent(int64, int64) { f() }

// Callback is a typed continuation: a handler plus the two arguments to
// invoke it with. It is a plain value, so model layers hand completions to
// one another — MPI envelope to NIC model to fabric — and store them in
// long-lived records without allocating, where a func() continuation
// would heap-allocate a closure per message. A Callback scheduled as an
// event is e.CallAt(t, c.H, c.A, c.B); one run inline is c.Fire().
type Callback struct {
	H    Handler
	A, B int64
}

// Fire invokes the continuation now.
func (c Callback) Fire() { c.H.HandleEvent(c.A, c.B) }

// Timer is a cancellable, re-armable scheduled callback (see
// Engine.NewTimer and Engine.AfterTimer). It implements Handler so its
// event record needs no closure beyond the fn the caller supplied, and it
// is reusable: Arm after Stop (or after firing) queues a fresh deadline on
// the same object, so a long-lived watchdog costs one allocation for its
// whole life instead of one per wait. Each Arm stamps a fresh generation
// number into the queued event's argument word; an event whose stamp no
// longer matches the timer's current generation is stale and is discarded
// at the head of the queue exactly like a stopped timer's event.
type Timer struct {
	eng   *Engine
	fn    func()
	gen   int64 // generation of the currently live event
	armed bool  // a live event with stamp gen sits in the queue
}

// NewTimer returns an unarmed reusable timer that runs fn when it fires.
// This is the allocation-conscious form: allocate once at wiring time, then
// Arm/Stop per use for free.
func (e *Engine) NewTimer(fn func()) *Timer {
	return &Timer{eng: e, fn: fn}
}

// Arm schedules the timer to fire after delay. Arming an already-armed
// timer supersedes the earlier deadline: the old event becomes stale and is
// dropped when it surfaces (or is compacted away), exactly as if it had
// been stopped.
func (t *Timer) Arm(delay Time) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e := t.eng
	if t.armed {
		// The previously queued event is now stale.
		e.stoppedTimers++
	}
	t.gen++
	t.armed = true
	e.enqueue(event{at: e.now + delay, h: t, a: t.gen})
	e.maybeCompact()
}

// Stop cancels the timer. A stopped timer's event is discarded when it
// reaches the head of the queue — without advancing the clock or counting
// as a dispatch — so cancelled watchdogs leave no trace on a run: neither
// its timing nor its deadlock detection sees them. When stopped timers
// accumulate faster than they surface (per-wait watchdogs under a fault
// plan arm one per MPI wait), the engine compacts them out of the queue in
// bulk; see maybeCompact. Stop on an unarmed or already-fired timer is a
// no-op, and a stopped timer may be re-armed with Arm.
func (t *Timer) Stop() {
	if t == nil || !t.armed {
		return
	}
	t.armed = false
	t.eng.stoppedTimers++
	t.eng.maybeCompact()
}

// stale reports whether an event carrying stamp gen no longer represents
// this timer's live deadline.
func (t *Timer) stale(gen int64) bool { return !t.armed || gen != t.gen }

// HandleEvent implements Handler: the timer fired. Engine use only — the
// dispatch loop has already filtered stale events.
func (t *Timer) HandleEvent(int64, int64) {
	t.armed = false
	t.fn()
}

// eventHeap is the engine's pending-event queue: a monotone radix queue
// (Ahuja, Mehlhorn, Orlin and Tarjan, JACM 1990) ordered by (time,
// sequence). It exploits the one property every simulator queue has —
// simulated time never runs backwards — to replace a heap's log-depth
// sifts, whose key compares are unpredictable branches over picosecond
// times spread across dozens of bits, with O(1) pushes and pops amortized
// over a handful of re-filings per event.
//
// The queue keeps a base: the time of the last event popped, so never
// above the engine clock. An event at time at is filed in bucket
// bits.Len64(at ^ base): bucket 0 holds the events at exactly base, bucket
// b >= 1 those whose highest bit differing from base is bit b-1. Times are
// non-negative int64s, so 64 buckets cover every key. A push is one bucket
// append. A pop takes bucket 0's head; when bucket 0 is empty it takes the
// minimum of the lowest non-empty bucket, moves base to its time and
// re-files the rest of that bucket, whose events all land in strictly
// lower buckets — empty at that moment — so each event descends a few
// levels over its lifetime rather than being compared log(n) times per
// operation.
//
// Order is structural. Every bucket is a FIFO in sequence order: pushes
// append the newest sequence number, and re-filing walks a bucket in order
// into empty buckets. Each bucket's running minimum keeps the first of
// equal times, so events at one instant pop in schedule order — exactly
// lessEv's (time, sequence) order. Any exact priority queue yields that
// same pop sequence, so the queue's structure never shows in any output.
//
// Peeks never move base. The dispatch loops peek for the FIFO-lane choice,
// the stale-timer drop, the RunUntil horizon and the window cap, and the
// shard scheduler peeks between windows; after any of those a push can
// still land between the clock and the peeked minimum (a same-instant
// handler, a schedule after a horizon stop, a cross-shard commit). So every
// bucket tracks its own minimum as keys arrive, peek reads the lowest
// bucket's, drop removes it without moving base, and only pop advances
// base. push panics on a time below base, so a broken invariant fails
// loudly instead of misordering. Tracking the minimum per bucket rather
// than scanning for it keeps a peek O(1) even when the next event sits in
// a bucket of thousands of far-future keys.
//
// Storage is split so the hot loops touch little memory and the garbage
// collector scans less. Keys — time plus slab index, no pointers — sit in
// fixed-size blocks chained per bucket and drawn from one per-queue free
// list, so the queue's footprint tracks its depth rather than which
// buckets the absolute time bits happen to fill, and steady-state traffic
// allocates nothing. A bucket keeps its first block while empty, so the
// buckets a run keeps cycling through never touch the free list. Handlers
// and arguments live in a slab whose slots are recycled through a free
// list.
type eventHeap struct {
	base      Time
	n         int    // queued events
	mask      uint64 // bit b set while bucket b holds keys
	bk        [64]qbucket
	free      *qblock // free-block list through qblock.next
	blocks    int     // blocks allocated
	slab      []qslot
	freeSlots []int32
}

// qBlockKeys is the key capacity of one storage block (a power of two, so
// masking an index proves it in range).
const qBlockKeys = 32

// qblock is one link of a bucket's key chain. Times and slots are parallel
// arrays so re-filing strides over dense keys; the only pointer is the
// chain link.
type qblock struct {
	next *qblock
	n    int32 // keys filled; every block but a chain's tail is full
	at   [qBlockKeys]Time
	slot [qBlockKeys]int32
}

// qbucket is one bucket's block chain and its minimum key: the earliest
// time, and of equal times the first filed — the lowest sequence. Bucket 0
// leaves the minimum unused: every key there is at base, so its head is
// the minimum.
type qbucket struct {
	head, tail *qblock // nil until first use, then kept while empty
	off        int32   // keys already popped from the head block (bucket 0 only)
	minSlot    int32
	minAt      Time
}

// qslot is the slab record of one queued event: its handler and
// arguments. The time is in the key and the sequence number is implicit in
// the key's position in its bucket.
type qslot struct {
	h    Handler
	a, b int64
}

// lessEv orders events by (time, sequence) — the order the queue pops in.
// The queue never evaluates it: FIFO buckets make the order structural.
// It is the specification the queue's tests check pop sequences against.
func lessEv(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push queues ev; its time must not be below base.
func (q *eventHeap) push(ev event) {
	if ev.at < q.base {
		panic(fmt.Sprintf("sim: event at %v queued below the queue base %v", ev.at, q.base))
	}
	var s int32
	if k := len(q.freeSlots) - 1; k >= 0 {
		s = q.freeSlots[k]
		q.freeSlots = q.freeSlots[:k]
	} else {
		s = int32(len(q.slab))
		q.slab = append(q.slab, qslot{})
	}
	q.slab[s] = qslot{h: ev.h, a: ev.a, b: ev.b}
	q.appendKey(bits.Len64(uint64(ev.at^q.base)), ev.at, s)
	q.n++
}

// peek returns the earliest queued time without moving base. The queue
// must be non-empty.
func (q *eventHeap) peek() Time {
	if q.mask&1 != 0 {
		return q.base
	}
	return q.bk[bits.TrailingZeros64(q.mask)].minAt
}

// head returns the slab record of the event peek reports.
func (q *eventHeap) head() *qslot {
	if q.mask&1 != 0 {
		bk := &q.bk[0]
		return &q.slab[bk.head.slot[bk.off&(qBlockKeys-1)]]
	}
	return &q.slab[q.bk[bits.TrailingZeros64(q.mask)].minSlot]
}

// pop removes the minimum event — the one head reports — advancing base
// to its time.
func (q *eventHeap) pop() {
	if q.mask&1 == 0 {
		// Move base to the lowest bucket's minimum and re-file the rest of
		// that bucket: every other key lands in a lower, empty bucket,
		// those at the new base in bucket 0 in sequence order.
		k := bits.TrailingZeros64(q.mask)
		bk := &q.bk[k]
		q.base = bk.minAt
		min := bk.minSlot
		for blk := bk.head; blk != nil; blk = blk.next {
			for j, at := range blk.at[:blk.n] {
				if s := blk.slot[j]; s != min {
					q.appendKey(bits.Len64(uint64(at^q.base)), at, s)
				}
			}
		}
		q.empty(k)
		q.release(min)
		return
	}
	bk := &q.bk[0]
	h := bk.head
	s := h.slot[bk.off&(qBlockKeys-1)]
	if bk.off++; bk.off == h.n {
		if h == bk.tail {
			h.n, bk.off = 0, 0
			q.mask &^= 1
		} else {
			bk.head, bk.off = h.next, 0
			h.next = q.free
			q.free = h
		}
	}
	q.release(s)
}

// drop removes the minimum event without moving base: the stale-timer
// discard, which must leave the clock — and so the lowest legal push time —
// where it is.
func (q *eventHeap) drop() {
	if q.mask&1 != 0 {
		q.pop() // bucket 0 sits at base, so popping it leaves base alone
		return
	}
	k := bits.TrailingZeros64(q.mask)
	skip := q.bk[k].minSlot
	q.filter(k, func(s int32) bool { return s != skip })
}

// compact releases every stale timer event, filtering each non-empty
// bucket in place.
func (q *eventHeap) compact() {
	live := func(s int32) bool {
		sl := &q.slab[s]
		return !staleEvent(sl.h, sl.a)
	}
	for m := q.mask; m != 0; m &= m - 1 {
		q.filter(bits.TrailingZeros64(m), live)
	}
}

// filter releases the keys of bucket b that keep rejects, compacting the
// survivors toward the chain's head in their original order (the write
// position never passes the read position) and recomputing the minimum.
func (q *eventHeap) filter(b int, keep func(s int32) bool) {
	bk := &q.bk[b]
	w, wi := bk.head, bk.off
	kept := false
	for r, j := bk.head, bk.off; r != nil; r, j = r.next, 0 {
		for ; j < r.n; j++ {
			at, s := r.at[j&(qBlockKeys-1)], r.slot[j&(qBlockKeys-1)]
			if !keep(s) {
				q.release(s)
				continue
			}
			if wi == qBlockKeys {
				w, wi = w.next, 0
			}
			w.at[wi&(qBlockKeys-1)], w.slot[wi&(qBlockKeys-1)] = at, s
			wi++
			if !kept || at < bk.minAt {
				bk.minAt, bk.minSlot = at, s
			}
			kept = true
		}
	}
	if !kept {
		q.empty(b)
		return
	}
	w.n = wi
	if w != bk.tail {
		bk.tail.next = q.free
		q.free = w.next
		w.next = nil
		bk.tail = w
	}
}

// empty marks bucket b empty, keeping its head block and freeing the rest
// of its chain.
func (q *eventHeap) empty(b int) {
	bk := &q.bk[b]
	h := bk.head
	if h != bk.tail {
		bk.tail.next = q.free
		q.free = h.next
		h.next = nil
		bk.tail = h
	}
	h.n, bk.off = 0, 0
	q.mask &^= 1 << b
}

// appendKey adds a key at the tail of bucket b, keeping its minimum.
func (q *eventHeap) appendKey(b int, at Time, s int32) {
	bk := &q.bk[b]
	t := bk.tail
	if q.mask&(1<<b) == 0 {
		if t == nil {
			t = q.newBlock()
			bk.head, bk.tail = t, t
		}
		bk.minAt, bk.minSlot = at, s
		q.mask |= 1 << b
	} else {
		if at < bk.minAt {
			bk.minAt, bk.minSlot = at, s
		}
		if t.n == qBlockKeys {
			nb := q.newBlock()
			t.next = nb
			bk.tail, t = nb, nb
		}
	}
	i := t.n & (qBlockKeys - 1)
	t.at[i], t.slot[i] = at, s
	t.n++
}

// newBlock takes an empty block from the free list. An empty list is
// refilled with as many blocks as the queue already owns (four at first),
// so block allocations are logarithmic in the queue's peak footprint.
func (q *eventHeap) newBlock() *qblock {
	if q.free == nil {
		batch := make([]qblock, max(q.blocks, 4))
		q.blocks += len(batch)
		for i := range batch[1:] {
			batch[i].next = &batch[i+1]
		}
		q.free = &batch[0]
	}
	f := q.free
	q.free = f.next
	f.next, f.n = nil, 0
	return f
}

// release recycles slot s.
func (q *eventHeap) release(s int32) {
	q.slab[s] = qslot{} // release the handler reference
	q.freeSlots = append(q.freeSlots, s)
	q.n--
}

// staleEvent reports whether an event for h carrying argument a is a timer
// event that no longer represents its timer's live deadline.
func staleEvent(h Handler, a int64) bool {
	t, ok := h.(*Timer)
	return ok && t.stale(a)
}

// totalDispatched accumulates events dispatched across every engine in the
// process — the suite-wide work measure scripts/bench.sh reports as
// events/sec. Engines add their per-run delta once per Run, so the hot loop
// never touches the atomic.
var totalDispatched atomic.Uint64

// TotalDispatched reports the number of events dispatched by all completed
// (or horizon-stopped) engine runs process-wide.
func TotalDispatched() uint64 { return totalDispatched.Load() }

// Timer-compaction thresholds: compact when at least compactMinStopped
// cancelled timers sit in the queue AND they exceed a quarter of it. The
// floor keeps small queues from compacting on every Stop; the fraction
// bounds wasted queue traffic (every re-filing of a dead event is pure
// overhead) to a constant factor.
const compactMinStopped = 64

// Engine is a discrete-event simulator instance. It is not safe for
// concurrent use; all model code runs on the engine's goroutine or on a
// process that the engine has handed control to. An engine may also be one
// shard of a Sharded group (see shard.go), in which case Run delegates to
// the group's conservative window scheduler and the engine's queue is
// dispatched one lookahead-bounded window at a time.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap
	// nowq is the current-instant FIFO lane: an event scheduled for the
	// instant being dispatched carries a larger sequence number than every
	// queued event at that instant (sequence numbers are globally
	// increasing), so it runs after all of them, in schedule order — a
	// strict FIFO. Appending to a ring skips the queue's slab and bucket
	// bookkeeping, and zero-delay traffic (Cond wakeups, Yield,
	// same-instant protocol steps) is a large share of all events.
	// Dispatch drains queued events at the current instant first (their
	// sequence numbers are smaller by construction), then this lane; the
	// merged order is exactly the global (at, seq) order, so determinism is
	// untouched.
	nowq     []event
	nowqHead int
	procs    map[*Proc]struct{}
	// failure captured from a panicking process, re-raised by Run.
	failure    interface{}
	running    bool
	dispatched uint64
	qhw        int  // event-queue depth high-water mark
	blocked    Time // total time processes spent blocked (not sleeping)
	slept      Time // total time processes spent in Sleep
	// stoppedTimers counts cancelled timer events still in the queue;
	// maybeCompact removes them in bulk once they dominate.
	stoppedTimers int
	compactions   uint64

	// Shard membership (nil/zero for a plain serial engine). owner is the
	// conservative group scheduler this engine belongs to, shard its index
	// in the group. windowCap is live only inside a runWindow dispatch: the
	// exclusive upper time bound of the window, shrunk by SendTo mid-window.
	// echoDist[dst] is this engine's column of the group's lookahead
	// distance matrix — how soon anything shard dst does can causally reach
	// this shard — set by the group scheduler before dispatch begins (nil
	// for a serial engine).
	owner     *Sharded
	shard     int
	windowCap Time
	echoDist  []Time

	// free holds this engine's record free lists, indexed by FreeList
	// slot and filled lazily; away lists those holding records released
	// here whose home is another shard (see recycle.go).
	free []any
	away []homeward
}

// New returns an empty engine with the clock at zero.
func New() *Engine {
	return &Engine{procs: make(map[*Proc]struct{})}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// enqueue stamps the next sequence number on ev, queues it (the FIFO lane
// for current-instant events during dispatch, the radix queue otherwise) and
// maintains the depth high-water mark — the single funnel every schedule
// form feeds.
func (e *Engine) enqueue(ev event) {
	e.seq++
	ev.seq = e.seq
	if e.running && ev.at == e.now {
		e.nowq = append(e.nowq, ev)
	} else {
		e.events.push(ev)
	}
	if d := e.events.n + len(e.nowq) - e.nowqHead; d > e.qhw {
		e.qhw = d
	}
}

// Schedule runs fn after delay (which may be zero). Events scheduled for the
// same instant run in schedule order.
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.At(e.now+delay, fn)
}

// At runs fn at the absolute time t, which must not be in the past.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", t, e.now))
	}
	e.enqueue(event{at: t, h: Func(fn)})
}

// Call invokes h.HandleEvent(a, b) after delay. It is the allocation-free
// counterpart of Schedule: h is an existing model object and a/b ride in
// the event record, so nothing escapes to the heap.
func (e *Engine) Call(delay Time, h Handler, a, b int64) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.CallAt(e.now+delay, h, a, b)
}

// CallAt invokes h.HandleEvent(a, b) at the absolute time t, which must not
// be in the past. See Call.
func (e *Engine) CallAt(t Time, h Handler, a, b int64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", t, e.now))
	}
	e.enqueue(event{at: t, h: h, a: a, b: b})
}

// schedProc queues a resume of p after delay — the park/wake path. Proc
// implements Handler, so this allocates nothing.
func (e *Engine) schedProc(p *Proc, delay Time) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.enqueue(event{at: e.now + delay, h: p})
}

// AfterTimer schedules fn after delay like Schedule, but returns a Timer
// whose Stop cancels the callback. A stopped timer is dropped on pop
// instead of dispatched as a no-op (which would drag the clock forward to
// its expiry and inflate every Elapsed measurement). AfterTimer allocates
// the Timer per call; callers arming on a hot path should allocate once
// with NewTimer and Arm/Stop per use.
func (e *Engine) AfterTimer(delay Time, fn func()) *Timer {
	t := e.NewTimer(fn)
	t.Arm(delay)
	return t
}

// maybeCompact removes cancelled timer events from the queue in bulk once
// they exceed the compaction thresholds. Without this, per-wait watchdogs
// (auto-armed on every MPI wait under a fault plan) rot in the queue until
// their far-future deadlines surface at the head, and every re-filing in
// between carries them along. Compaction filters each bucket in place,
// preserving its order, so the (at, seq) total order that determines
// dispatch is untouched and determinism is unaffected.
func (e *Engine) maybeCompact() {
	if e.stoppedTimers < compactMinStopped || e.stoppedTimers*4 <= e.events.n {
		return
	}
	e.events.compact()
	// The FIFO lane can hold stopped timers too (armed and cancelled
	// within the same instant); filter its live region, head left in place.
	if e.nowqHead < len(e.nowq) {
		keptNow := e.nowq[:e.nowqHead]
		for _, ev := range e.nowq[e.nowqHead:] {
			if !staleEvent(ev.h, ev.a) {
				keptNow = append(keptNow, ev)
			}
		}
		tail := e.nowq[len(keptNow):]
		for i := range tail {
			tail[i] = event{}
		}
		e.nowq = keptNow
	}
	e.stoppedTimers = 0
	e.compactions++
}

// Compactions reports how many bulk timer-compaction passes have run —
// exposed for tests and the engine health probes.
func (e *Engine) Compactions() uint64 { return e.compactions }

// StoppedPending reports how many cancelled timer events currently sit in
// the queue awaiting drop-on-pop or compaction (test hook).
func (e *Engine) StoppedPending() int { return e.stoppedTimers }

// Run dispatches events until the queue is empty. If live processes remain
// blocked when the queue drains, Run returns a DeadlockError naming them. If
// a process panicked, Run re-panics with the process name attached.
//
// On an engine that belongs to a Sharded group, Run drives the whole group:
// the conservative window scheduler advances every shard together, so model
// code built against a single engine keeps working unchanged when that
// engine is shard 0 of a partitioned world.
func (e *Engine) Run() error {
	return e.RunUntil(-1)
}

// RunUntil is Run with a horizon: once the clock would pass limit, dispatch
// stops (events at exactly limit still run). A negative limit means no
// horizon. Processes still blocked at exit are not an error when the horizon
// was reached.
func (e *Engine) RunUntil(limit Time) error {
	if e.owner != nil {
		return e.owner.RunUntil(limit)
	}
	return e.runSerial(limit)
}

// runSerial is the single-engine dispatch loop — the -shards 1 fast path,
// byte-for-byte the pre-shard engine with zero added work per event.
func (e *Engine) runSerial(limit Time) error {
	if e.running {
		panic("sim: Run re-entered")
	}
	e.running = true
	startDispatched := e.dispatched
	defer func() {
		e.running = false
		totalDispatched.Add(e.dispatched - startDispatched)
	}()

	horizon := false
	for {
		var ev event
		if e.nowqHead < len(e.nowq) && (e.events.n == 0 || e.events.peek() > e.now) {
			// FIFO lane: every queued event at this instant (all with
			// smaller sequence numbers) has already run.
			ev = e.nowq[e.nowqHead]
			e.nowq[e.nowqHead] = event{} // release the handler reference
			e.nowqHead++
			if e.nowqHead == len(e.nowq) {
				e.nowq = e.nowq[:0]
				e.nowqHead = 0
			}
			if staleEvent(ev.h, ev.a) {
				e.stoppedTimers--
				continue
			}
		} else if e.events.n > 0 {
			at := e.events.peek()
			h := e.events.head()
			if staleEvent(h.h, h.a) {
				// Cancelled or superseded by a re-Arm: drop without
				// advancing the clock or counting a dispatch.
				e.stoppedTimers--
				e.events.drop()
				continue
			}
			if limit >= 0 && at > limit {
				horizon = true
				break
			}
			ev = event{at: at, a: h.a, b: h.b, h: h.h}
			e.events.pop()
			e.now = at
		} else {
			break
		}
		e.dispatched++
		ev.h.HandleEvent(ev.a, ev.b)
		if e.failure != nil {
			f := e.failure
			e.failure = nil
			panic(f)
		}
	}
	if horizon {
		e.now = limit
		return nil
	}
	if n := len(e.procs); n > 0 {
		names := make([]string, 0, n)
		for p := range e.procs {
			names = append(names, fmt.Sprintf("%s (blocked: %s)", p.name, p.blockedOn))
		}
		sort.Strings(names)
		return &DeadlockError{At: e.now, Procs: names}
	}
	return nil
}

// nextEventAt reports the earliest queued occurrence's timestamp, or false
// when the queue is empty — the shard scheduler's window-planning probe.
func (e *Engine) nextEventAt() (Time, bool) {
	if e.nowqHead < len(e.nowq) {
		t := e.nowq[e.nowqHead].at
		if e.events.n > 0 {
			t = min(t, e.events.peek())
		}
		return t, true
	}
	if e.events.n > 0 {
		return e.events.peek(), true
	}
	return 0, false
}

// runWindow dispatches every event with at < cap — one conservative window.
// It mirrors runSerial's loop exactly (FIFO lane preference, stale-timer
// drops without dispatch counts) but stops at the window cap instead of a
// drained queue, and returns a captured process failure instead of
// panicking, so the group coordinator can re-raise the lowest shard's
// failure deterministically. The cap is read afresh each iteration because
// SendTo shrinks it mid-window on every cross-shard send (the earliest
// possible causal echo is the send's arrival plus the lookahead distance
// back from its destination).
func (e *Engine) runWindow(cap Time) (failure interface{}) {
	if e.running {
		panic("sim: Run re-entered")
	}
	e.running = true
	e.windowCap = cap
	defer func() { e.running = false }()
	for {
		var ev event
		if e.nowqHead < len(e.nowq) && (e.events.n == 0 || e.events.peek() > e.now) {
			// FIFO-lane events sit at e.now, which is < windowCap by
			// construction (the window admitted the event that queued them),
			// so no cap check is needed: the lane always drains.
			ev = e.nowq[e.nowqHead]
			e.nowq[e.nowqHead] = event{}
			e.nowqHead++
			if e.nowqHead == len(e.nowq) {
				e.nowq = e.nowq[:0]
				e.nowqHead = 0
			}
			if staleEvent(ev.h, ev.a) {
				e.stoppedTimers--
				continue
			}
		} else if e.events.n > 0 {
			at := e.events.peek()
			h := e.events.head()
			if staleEvent(h.h, h.a) {
				e.stoppedTimers--
				e.events.drop()
				continue
			}
			if at >= e.windowCap {
				break
			}
			ev = event{at: at, a: h.a, b: h.b, h: h.h}
			e.events.pop()
			e.now = at
		} else {
			break
		}
		e.dispatched++
		ev.h.HandleEvent(ev.a, ev.b)
		if e.failure != nil {
			f := e.failure
			e.failure = nil
			return f
		}
	}
	return nil
}

// ShardID reports this engine's index within its Sharded group (0 for a
// plain serial engine).
func (e *Engine) ShardID() int { return e.shard }

// SendTo schedules h.HandleEvent(a, b) after delay on shard dst of this
// engine's group — the cross-shard counterpart of Call. The delay must be at
// least the configured lookahead for the (src, dst) edge; a shorter delay is
// a model bug (the edge's physical latency was overstated to the scheduler)
// and panics with a *LookaheadError. Sends to the engine's own shard degrade
// to Call. The message is buffered in the per-shard outbox and committed at
// the next window barrier in (at, source shard, source sequence) order, so
// delivery order is a pure function of the model, not of goroutine timing.
func (e *Engine) SendTo(dst int, delay Time, h Handler, a, b int64) {
	s := e.owner
	if s == nil {
		panic("sim: SendTo on an engine outside a Sharded group")
	}
	if dst < 0 || dst >= len(s.shards) {
		panic(fmt.Sprintf("sim: SendTo shard %d out of range [0,%d)", dst, len(s.shards)))
	}
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	if dst == e.shard {
		e.Call(delay, h, a, b)
		return
	}
	if la := s.edgeLookahead(e.shard, dst); delay < la {
		panic(&LookaheadError{Src: e.shard, Dst: dst, Delay: delay, Lookahead: la})
	}
	at := e.now + delay
	e.seq++
	s.outbox[e.shard] = append(s.outbox[e.shard],
		xmsg{at: at, src: e.shard, srcSeq: e.seq, dst: dst, a: a, b: b, h: h})
	// Every cross-shard send re-bounds the live window: the earliest event
	// this message could cause to reach back here — directly or through any
	// relay chain — lands at its arrival plus the lookahead distance from
	// the destination, so dispatch past that point is unsafe. This is what
	// keeps unbounded solo windows and the per-shard caps honest against
	// echoes through shards that held no events at planning time.
	if e.running && e.echoDist != nil {
		if c := at + e.echoDist[dst]; c < e.windowCap {
			e.windowCap = c
		}
	}
}

// addTotalDispatched folds a completed run's dispatch delta into the
// process-wide counter (one atomic add per run, never per event).
func addTotalDispatched(n uint64) { totalDispatched.Add(n) }

// Pending reports the number of queued events (radix queue and current-instant
// FIFO lane together).
func (e *Engine) Pending() int { return e.events.n + len(e.nowq) - e.nowqHead }

// Dispatched reports how many events the engine has executed — a measure
// of simulation work, useful for budgeting large experiments.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// LiveProcs reports the number of processes that have been spawned and have
// not yet returned.
func (e *Engine) LiveProcs() int { return len(e.procs) }

// QueueHighWater reports the deepest the event queue has ever been.
func (e *Engine) QueueHighWater() int { return e.qhw }

// BlockedTime reports total time processes spent blocked on conditions
// (waiting for messages, resources) across the whole run — sleep time,
// which models computation, is excluded.
func (e *Engine) BlockedTime() Time { return e.blocked }

// SleptTime reports total time processes spent in Sleep (modelled compute).
func (e *Engine) SleptTime() Time { return e.slept }

// Instrument registers the engine's own health metrics in m: events
// dispatched, event-queue depth high-water, timer compactions, and
// aggregate process blocked/slept time. All are snapshot-time probes; the
// event loop itself is untouched.
func (e *Engine) Instrument(m *metrics.Registry) {
	if m == nil {
		return
	}
	if e.owner != nil && len(e.owner.shards) > 1 {
		// A grouped engine's counters cover only its shard; report the
		// group-wide aggregate instead so snapshots measure the whole world.
		e.owner.Instrument(m)
		return
	}
	m.ProbeCount("engine/events_dispatched", func() int64 { return int64(e.dispatched) })
	m.ProbeGauge("engine/queue_high_water", func() int64 { return int64(e.qhw) })
	m.ProbeCount("engine/timer_compactions", func() int64 { return int64(e.compactions) })
	m.ProbeTime("engine/blocked_time", e.BlockedTime)
	m.ProbeTime("engine/slept_time", e.SleptTime)
}

// ProcFailure is the value Run re-panics with when a simulated process
// panicked: it names the process and carries the original panic value
// intact, so a caller recovering it can inspect (or unwrap) typed values
// instead of a flattened string.
type ProcFailure struct {
	Proc  string
	Value interface{}
}

func (f *ProcFailure) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v", f.Proc, f.Value)
}

// String keeps fmt.Sprint / %v output identical to the pre-struct string
// form of this failure.
func (f *ProcFailure) String() string { return f.Error() }

// DeadlockError is returned by Run when all events have drained while
// simulated processes are still blocked — the simulation analogue of an MPI
// hang.
type DeadlockError struct {
	At    Time
	Procs []string
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v; blocked processes: %s",
		d.At, strings.Join(d.Procs, ", "))
}
