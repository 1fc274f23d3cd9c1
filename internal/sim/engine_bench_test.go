package sim

import (
	"testing"
)

// BenchmarkEngineSchedule measures the cost of scheduling plus dispatching
// one event — the simulator's hottest path. It guards the hand-rolled event
// heap: container/heap's interface{} Push/Pop boxed one allocation per
// scheduled event; the direct slice heap must stay at zero allocations per
// event beyond amortized slice growth.
func BenchmarkEngineSchedule(b *testing.B) {
	e := New()
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	const batch = 1024
	for n := 0; n < b.N; n += batch {
		k := batch
		if rem := b.N - n; rem < k {
			k = rem
		}
		// Interleaved deadlines exercise real sift-up/down work.
		for i := 0; i < k; i++ {
			e.Schedule(Time((i*7919)%97), nop)
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineScheduleDeep keeps a deep queue resident so every push and
// pop pays log(depth) sifting, the worst realistic case (an 8-node alltoall
// keeps hundreds of events queued).
func BenchmarkEngineScheduleDeep(b *testing.B) {
	e := New()
	nop := func() {}
	const depth = 4096
	for i := 0; i < depth; i++ {
		e.Schedule(Time(1<<40+i), nop) // far-future ballast
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e.Schedule(Time((n*7919)%1024), nop)
		if err := e.RunUntil(Time(1 << 30)); err != nil {
			b.Fatal(err)
		}
	}
}

// countHandler is a long-lived typed-event target, the shape every hot-path
// model object (Proc, Timer, xfer, rail monitor) has after the overhaul.
type countHandler struct{ n int64 }

func (h *countHandler) HandleEvent(a, b int64) { h.n += a }

// BenchmarkEngineCall measures the typed-event hot path — Call on a
// long-lived Handler with two int64 arguments — which must not allocate:
// the handler is already interface-shaped and the args live in the event
// record, so the only cost is heap maintenance.
func BenchmarkEngineCall(b *testing.B) {
	e := New()
	h := &countHandler{}
	b.ReportAllocs()
	b.ResetTimer()
	const batch = 1024
	for n := 0; n < b.N; n += batch {
		k := batch
		if rem := b.N - n; rem < k {
			k = rem
		}
		for i := 0; i < k; i++ {
			e.Call(Time((i*7919)%97), h, 1, 0)
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	if h.n != int64(b.N) {
		b.Fatalf("handler ran %d times, want %d", h.n, b.N)
	}
}

// BenchmarkProcParkWake measures one park/resume round-trip of a
// cooperative process (Sleep(1) and the wake event that resumes it): two
// coroutine switches plus one heap push and pop. Steady state must be zero
// allocations per cycle (the one-time Spawn cost amortizes to zero over
// b.N).
func BenchmarkProcParkWake(b *testing.B) {
	e := New()
	b.ReportAllocs()
	b.ResetTimer()
	e.Spawn("bench", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTimerArmStop measures arming and immediately stopping a
// long-lived reusable timer — the watchdog pattern every completed MPI
// wait performs — including the amortized cost of lazy heap compaction
// reclaiming the stopped entries. The timer is allocated once outside the
// loop (the NewTimer/Arm/Stop pattern the MPI watchdog uses), so the
// steady-state cycle must be zero allocations per op.
func BenchmarkTimerArmStop(b *testing.B) {
	e := New()
	// Ballast keeps the heap non-trivial so compaction has real work.
	for i := 0; i < 512; i++ {
		e.Call(Time(1<<50+i), &countHandler{}, 0, 0)
	}
	tm := e.NewTimer(func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		tm.Arm(Time(1 << 40))
		tm.Stop()
	}
}

// TestEventHeapOrdering pushes a scrambled set of deadlines and requires
// pops in (time, seq) order — the determinism invariant the hand-rolled
// heap must preserve exactly as container/heap did.
func TestEventHeapOrdering(t *testing.T) {
	var h eventHeap
	seq := uint64(0)
	// A pattern with many ties: times cycle 0..9 while seq increases.
	for i := 0; i < 1000; i++ {
		seq++
		h.push(event{at: Time(i % 10), seq: seq})
	}
	var lastAt Time = -1
	var lastSeq uint64
	for len(h) > 0 {
		ev := h.pop()
		if ev.at < lastAt || (ev.at == lastAt && ev.seq <= lastSeq) {
			t.Fatalf("pop out of order: (%v, %d) after (%v, %d)", ev.at, ev.seq, lastAt, lastSeq)
		}
		lastAt, lastSeq = ev.at, ev.seq
	}
}

// TestEngineScheduleZeroAlloc pins the boxing fix: steady-state
// schedule+dispatch must not allocate (the heap slice is pre-grown by the
// warmup round).
func TestEngineScheduleZeroAlloc(t *testing.T) {
	e := New()
	nop := func() {}
	run := func() {
		for i := 0; i < 256; i++ {
			e.Schedule(Time(i%13), nop)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the slice capacity
	avg := testing.AllocsPerRun(10, run)
	if avg > 0 {
		t.Errorf("schedule+dispatch allocates %.1f times per 256 events, want 0", avg)
	}
}
