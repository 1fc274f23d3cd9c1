package sim

import (
	"encoding/binary"
	"fmt"
	"sort"
	"testing"
)

// popEv removes the queue's minimum and returns it as the dispatch loops
// read it: the time from peek, the rest from head. The queue does not
// store sequence numbers (bucket order implies them), so these tests push
// every event with its sequence number in a as well, and popEv restores it
// from there.
func popEv(q *eventHeap) event {
	h := q.head()
	ev := event{at: q.peek(), seq: uint64(h.a), a: h.a, b: h.b, h: h.h}
	q.pop()
	return ev
}

// queueRef is the reference priority queue the radix queue is checked
// against: a plain slice re-sorted by lessEv before every read.
type queueRef []event

func (r *queueRef) min() event {
	sort.Slice(*r, func(i, j int) bool { return lessEv(&(*r)[i], &(*r)[j]) })
	return (*r)[0]
}

func (r *queueRef) popMin() event {
	ev := r.min()
	*r = (*r)[1:]
	return ev
}

// TestEventHeapOrdering drives the queue directly through every operation
// the engine uses — push, peek, pop and the base-preserving drop — and
// requires each answer to match the (time, seq) reference exactly. The
// pushes cover the cases the radix invariant turns on: runs of ties,
// pushes at exactly base, pushes between the clock and a just-peeked
// minimum (which must displace the cached minimum), after drops that left
// base below the clock's candidates, and times across the full 0..2^62
// range.
func TestEventHeapOrdering(t *testing.T) {
	// Ties in bulk: times cycle 0..9 while seq increases.
	var h eventHeap
	var seq uint64
	for i := 0; i < 1000; i++ {
		seq++
		h.push(event{at: Time(i % 10), seq: seq, a: int64(seq)})
	}
	var last event
	for first := true; h.n > 0; first = false {
		ev := popEv(&h)
		if !first && !lessEv(&last, &ev) {
			t.Fatalf("pop out of order: (%v, %d) after (%v, %d)", ev.at, ev.seq, last.at, last.seq)
		}
		last = ev
	}

	// Randomized operation mix against the reference.
	for seed := uint64(1); seed <= 40; seed++ {
		rng := seed * 0x9e3779b97f4a7c15
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		var q eventHeap
		var ref queueRef
		var now Time
		seq = 0
		for op := 0; op < 3000; op++ {
			switch r := next() % 16; {
			case r < 8 || len(ref) == 0:
				var at Time
				switch next() % 6 {
				case 0:
					at = now // exactly base (the clock never lags base here)
				case 1:
					at = now + Time(next()%8) // tie-heavy
				case 2:
					if len(ref) > 0 {
						at = ref[next()%uint64(len(ref))].at // tie with a queued event
					} else {
						at = now
					}
				case 3:
					if len(ref) > 0 { // between the clock and the peeked minimum
						m := q.peek()
						at = now + Time(next()%uint64(m-now+1))
					} else {
						at = now
					}
				case 4:
					at = now + Time(next()>>(2+next()%62)) // any span up to 2^62
				default:
					at = now + Time(1)<<(next()%40) - 1 // power-of-two boundaries
				}
				if at > 1<<62 || at < now {
					at = now
				}
				seq++
				ev := event{at: at, seq: seq, a: int64(seq)}
				q.push(ev)
				ref = append(ref, ev)
			case r < 11:
				want := ref.min()
				if got := q.peek(); got != want.at {
					t.Fatalf("seed %d op %d: peek = %v, want %v", seed, op, got, want.at)
				}
				if got := q.head(); got.a != want.a {
					t.Fatalf("seed %d op %d: head seq = %d, want %d", seed, op, got.a, want.seq)
				}
			case r < 14:
				want := ref.popMin()
				got := popEv(&q)
				if got.at != want.at || got.seq != want.seq {
					t.Fatalf("seed %d op %d: pop = (%v, %d), want (%v, %d)", seed, op, got.at, got.seq, want.at, want.seq)
				}
				now = got.at
			default:
				// drop discards the minimum without advancing base, so a
				// later push at the unchanged clock must still be legal.
				ref.popMin()
				q.drop()
			}
			if q.n != len(ref) {
				t.Fatalf("seed %d op %d: queue holds %d, want %d", seed, op, q.n, len(ref))
			}
		}
		for len(ref) > 0 {
			want := ref.popMin()
			if got := popEv(&q); got.at != want.at || got.seq != want.seq {
				t.Fatalf("seed %d drain: pop = (%v, %d), want (%v, %d)", seed, got.at, got.seq, want.at, want.seq)
			}
		}
	}
}

// TestEventHeapPushBelowBasePanics: base only moves forward, so a push
// below it is a broken engine invariant and must fail loudly.
func TestEventHeapPushBelowBasePanics(t *testing.T) {
	var q eventHeap
	q.push(event{at: 100})
	q.push(event{at: 200})
	q.pop()
	defer func() {
		if recover() == nil {
			t.Fatal("push below base did not panic")
		}
	}()
	q.push(event{at: 99})
}

// fuzzEngine drives an Engine through its public API from a byte string
// and mirrors every step in a reference model built on a sorted slice:
// dispatch order, the clock, Pending, StoppedPending and the timer
// compaction count must all agree after every operation.
type fuzzEngine struct {
	t      *testing.T
	e      *Engine
	data   []byte
	timers []*Timer
	gens   []int64 // reference generation per timer
	armed  []bool
	log    []string // engine dispatch log

	ref      []fuzzRefEv
	refNow   Time
	refStale int
	refComp  uint64
	refLog   []string
}

// fuzzRefEv is one reference queue entry; timer >= 0 marks a timer event
// stamped with generation gen.
type fuzzRefEv struct {
	at    Time
	id    int64
	timer int
	gen   int64
}

// fuzzHandler is the callback target for plain fuzz events: it logs its
// dispatch and, depending on its id, schedules a follow-up at the current
// instant (the FIFO lane) or a short hop ahead. The reference applies the
// same rule.
type fuzzHandler struct{ f *fuzzEngine }

func (h fuzzHandler) HandleEvent(id, _ int64) {
	f := h.f
	f.log = append(f.log, fmt.Sprintf("ev %d @%d", id, f.e.Now()))
	if d, ok := followUp(id); ok {
		f.e.Call(d, h, id+1_000_000, 0)
	}
}

// followUp is the shared follow-up rule: ids below one million (events the
// fuzz program schedules directly) spawn one follow-up, at delay 0 or a
// small hop.
func followUp(id int64) (Time, bool) {
	if id >= 1_000_000 || id%3 == 2 {
		return 0, false
	}
	return Time(id%3) * 7, true
}

const fuzzMaxTime = Time(1) << 62

func (f *fuzzEngine) u8() byte {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[0]
	f.data = f.data[1:]
	return b
}

func (f *fuzzEngine) u64() uint64 {
	var buf [8]byte
	for i := range buf {
		buf[i] = f.u8()
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// refPush inserts ev into the reference queue, which is kept in (at, seq)
// order: ev is the newest schedule, so it goes after every entry at or
// before its time.
func (f *fuzzEngine) refPush(ev fuzzRefEv) {
	i := sort.Search(len(f.ref), func(i int) bool { return f.ref[i].at > ev.at })
	f.ref = append(f.ref, fuzzRefEv{})
	copy(f.ref[i+1:], f.ref[i:])
	f.ref[i] = ev
}

func (f *fuzzEngine) refStaleEv(ev fuzzRefEv) bool {
	return ev.timer >= 0 && (!f.armed[ev.timer] || ev.gen != f.gens[ev.timer])
}

// delay decodes a delay class: zero, tiny, a tie with a queued event, a
// point between the clock and the queue minimum, a power-of-two boundary,
// or anything up to 2^62.
func (f *fuzzEngine) delay() Time {
	now := f.e.Now()
	var d Time
	switch f.u8() % 6 {
	case 0:
	case 1:
		d = Time(f.u8() % 16)
	case 2:
		if len(f.ref) > 0 {
			if at := f.ref[int(f.u8())%len(f.ref)].at; at >= now {
				d = at - now
			}
		}
	case 3:
		if len(f.ref) > 0 {
			m := f.ref[0].at
			d = Time(f.u64() % uint64(m-now+1))
		}
	case 4:
		p := Time(1) << (f.u8() % 48) // the next multiple of a power of two
		d = p - now%p
	default:
		d = Time(f.u64() >> (2 + f.u8()%62))
	}
	if d < 0 || d > fuzzMaxTime-now {
		d = 0
	}
	return d
}

func (f *fuzzEngine) schedule(id int64, at Time) {
	f.refPush(fuzzRefEv{at: at, id: id, timer: -1})
}

func (f *fuzzEngine) arm(i int, d Time) {
	if f.armed[i] {
		f.refStale++
	}
	f.gens[i]++
	f.armed[i] = true
	f.refPush(fuzzRefEv{at: f.refNow + d, timer: i, gen: f.gens[i]})
	f.maybeCompact()
	f.timers[i].Arm(d)
}

func (f *fuzzEngine) stop(i int) {
	if f.armed[i] {
		f.armed[i] = false
		f.refStale++
		f.maybeCompact()
	}
	f.timers[i].Stop()
}

// maybeCompact mirrors the engine's compaction rule. The fuzz program arms
// and stops timers only outside dispatch, when the FIFO lane is empty, so
// the whole reference queue is the radix queue.
func (f *fuzzEngine) maybeCompact() {
	if f.refStale < compactMinStopped || f.refStale*4 <= len(f.ref) {
		return
	}
	kept := f.ref[:0]
	for _, ev := range f.ref {
		if !f.refStaleEv(ev) {
			kept = append(kept, ev)
		}
	}
	f.ref = kept
	f.refStale = 0
	f.refComp++
}

// runUntil mirrors runSerial: drop stale timers at the head without moving
// the clock, stop at the horizon, dispatch everything else in (at, seq)
// order, applying the follow-up rule.
func (f *fuzzEngine) runUntil(limit Time) {
	for len(f.ref) > 0 {
		ev := f.ref[0]
		if f.refStaleEv(ev) {
			f.ref = f.ref[1:]
			f.refStale--
			continue
		}
		if limit >= 0 && ev.at > limit {
			f.refNow = limit
			break
		}
		f.ref = f.ref[1:]
		f.refNow = ev.at
		if ev.timer >= 0 {
			f.armed[ev.timer] = false
			f.refLog = append(f.refLog, fmt.Sprintf("timer %d @%d", ev.timer, ev.at))
			continue
		}
		f.refLog = append(f.refLog, fmt.Sprintf("ev %d @%d", ev.id, ev.at))
		if d, ok := followUp(ev.id); ok {
			f.schedule(ev.id+1_000_000, ev.at+d)
		}
	}
	if err := f.e.RunUntil(limit); err != nil {
		f.t.Fatal(err)
	}
}

func (f *fuzzEngine) check(step int) {
	t := f.t
	if len(f.log) != len(f.refLog) {
		t.Fatalf("step %d: engine dispatched %d events since the last step, reference %d\nengine: %v\nref:    %v",
			step, len(f.log), len(f.refLog), f.log, f.refLog)
	}
	for i := range f.log {
		if f.log[i] != f.refLog[i] {
			t.Fatalf("step %d: dispatch %d = %q, reference %q", step, i, f.log[i], f.refLog[i])
		}
	}
	f.log, f.refLog = f.log[:0], f.refLog[:0]
	if f.e.Now() != f.refNow {
		t.Fatalf("step %d: clock %v, reference %v", step, f.e.Now(), f.refNow)
	}
	if f.e.Pending() != len(f.ref) {
		t.Fatalf("step %d: Pending %d, reference %d", step, f.e.Pending(), len(f.ref))
	}
	if f.e.StoppedPending() != f.refStale {
		t.Fatalf("step %d: StoppedPending %d, reference %d", step, f.e.StoppedPending(), f.refStale)
	}
	if f.e.Compactions() != f.refComp {
		t.Fatalf("step %d: Compactions %d, reference %d", step, f.e.Compactions(), f.refComp)
	}
}

func runFuzzEngine(t *testing.T, data []byte) {
	if len(data) > 1<<14 {
		data = data[:1<<14] // keep each input's run short
	}
	f := &fuzzEngine{t: t, e: New(), data: data}
	for i := 0; i < 8; i++ {
		f.timers = append(f.timers, f.e.NewTimer(func() {
			f.log = append(f.log, fmt.Sprintf("timer %d @%d", i, f.e.Now()))
		}))
	}
	f.gens = make([]int64, len(f.timers))
	f.armed = make([]bool, len(f.timers))
	h := fuzzHandler{f}
	var id int64
	for step := 0; len(f.data) > 0; step++ {
		switch f.u8() % 8 {
		case 0, 1, 2: // schedule
			d := f.delay()
			id++
			f.schedule(id, f.refNow+d)
			f.e.Call(d, h, id, 0)
		case 3: // RunUntil a horizon
			var limit Time
			switch f.u8() % 3 {
			case 0:
				limit = -1 // drain
			case 1:
				if len(f.ref) > 0 { // exactly the next instant: a single pop step
					limit = f.ref[0].at
				} else {
					limit = f.refNow
				}
			default:
				limit = f.refNow + f.delay()
			}
			f.runUntil(limit)
		case 4, 5: // arm
			f.arm(int(f.u8())%len(f.timers), f.delay())
		case 6: // stop
			f.stop(int(f.u8()) % len(f.timers))
		case 7: // a burst of arm+stop cycles: forces compaction
			i := int(f.u8()) % len(f.timers)
			for k := 0; k < 70; k++ {
				f.arm(i, Time(k)<<(k%40))
				f.stop(i)
			}
		}
		f.check(step)
	}
	f.runUntil(-1)
	f.check(-1)
	if f.e.Pending() != 0 || f.e.StoppedPending() != 0 {
		t.Fatalf("drained engine: Pending %d, StoppedPending %d", f.e.Pending(), f.e.StoppedPending())
	}
}

// FuzzEventQueue checks the engine's dispatch order, clock, queue depth
// and timer-compaction accounting against a sorted-slice reference over
// arbitrary mixes of schedules (ties, pushes at the clock, pushes between
// the clock and a just-peeked minimum, times up to 2^62), RunUntil
// horizons and single-instant steps, timer arms and stops, and the
// arm/stop bursts that trigger compaction. The seed corpus runs under
// plain go test.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 3, 0, 3, 1, 3, 0})
	// Ties and same-instant follow-ups, then a drain.
	f.Add([]byte{0, 0, 1, 0, 2, 0, 0, 1, 3, 0, 1, 0, 0, 1, 3, 0})
	// A horizon stop, then pushes between the clock and the peeked minimum.
	f.Add([]byte{0, 5, 0, 0, 0, 0, 0, 0, 0, 1, 3, 2, 1, 9, 0, 3, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0,
		1, 3, 0x10, 0, 0, 0, 0, 0, 0, 0, 3, 1, 3, 0})
	// Far-future timers, a compaction burst, then single-instant steps.
	f.Add([]byte{4, 2, 5, 40, 5, 3, 4, 30, 7, 2, 0, 4, 20, 20, 3, 1, 3, 1, 6, 2, 3, 0})
	// Long mixed program.
	long := make([]byte, 0, 2048)
	rng := uint32(2463534242)
	for len(long) < cap(long) {
		rng ^= rng << 13
		rng ^= rng >> 17
		rng ^= rng << 5
		long = append(long, byte(rng))
	}
	f.Add(long)
	f.Fuzz(runFuzzEngine)
}
