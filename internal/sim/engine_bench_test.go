package sim

import (
	"testing"
)

// BenchmarkEngineSchedule measures the cost of scheduling plus dispatching
// one event — the simulator's hottest path. It guards the hand-rolled event
// queue: container/heap's interface{} Push/Pop boxed one allocation per
// scheduled event; the radix queue must stay at zero allocations per event
// beyond the amortized growth of its storage.
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
		// Interleaved deadlines exercise real bucket re-filing.
		for i := 0; i < k; i++ {
			e.Schedule(Time((i*7919)%97), nop)
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineScheduleDeep keeps a deep queue resident: 4096 far-future
// ballast events stay queued while every op schedules one event within the
// next 1024 ps and runs up to that horizon, so each op is exactly one push
// and one pop against the deep queue (an 8-node alltoall keeps hundreds of
// events queued; a 1k-rank Clos world thousands).
func BenchmarkEngineScheduleDeep(b *testing.B) {
	e := New()
	nop := func() {}
	const depth = 4096
	for i := 0; i < depth; i++ {
		e.Schedule(Time(1<<50+i), nop) // far-future ballast
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e.Schedule(Time((n*7919)%1024), nop)
		if err := e.RunUntil(e.Now() + 1024); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if e.Dispatched() != uint64(b.N) || e.Pending() != depth {
		b.Fatalf("dispatched %d with %d pending, want %d with %d", e.Dispatched(), e.Pending(), b.N, depth)
	}
}

// countHandler is a long-lived typed-event target, the shape every hot-path
// model object (Proc, Timer, xfer, rail monitor) has after the overhaul.
type countHandler struct{ n int64 }

func (h *countHandler) HandleEvent(a, b int64) { h.n += a }

// BenchmarkEngineCall measures the typed-event hot path — Call on a
// long-lived Handler with two int64 arguments — which must not allocate:
// the handler is already interface-shaped and the args live in the event
// record, so the only cost is queue maintenance.
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
// coroutine switches plus one queue push and pop. Steady state must be zero
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
// wait performs — including the amortized cost of lazy queue compaction
// reclaiming the stopped entries. The timer is allocated once outside the
// loop (the NewTimer/Arm/Stop pattern the MPI watchdog uses), so the
// steady-state cycle must be zero allocations per op.
func BenchmarkTimerArmStop(b *testing.B) {
	e := New()
	// Ballast keeps the queue non-trivial so compaction has real work.
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

// TestEngineScheduleZeroAlloc pins the boxing fix: steady-state
// schedule+dispatch must not allocate (the queue's storage is grown by the
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

// holdHandler is a hold-model token: each dispatch reschedules it after a
// pseudo-random delay of up to 2^30 ps, so the queue's times cross bit
// boundaries at every level the delays span.
type holdHandler struct {
	e    *Engine
	rng  uint64
	left int
}

func (h *holdHandler) HandleEvent(int64, int64) {
	if h.left == 0 {
		return
	}
	h.left--
	h.rng = h.rng*6364136223846793005 + 1442695040888963407
	h.e.Call(Time(h.rng>>34), h, 0, 0)
}

// TestEngineScheduleDeepZeroAlloc pins the queue's storage against the
// deep-queue case: with 4096 far-future events resident, steady hold
// traffic whose times cross many radix bucket boundaries must not allocate
// once warm. Which buckets fill depends on the absolute bits of the time,
// so storage that grew per bucket would keep allocating here long after
// the queue's depth had stopped growing.
func TestEngineScheduleDeepZeroAlloc(t *testing.T) {
	e := New()
	nop := func() {}
	for i := 0; i < 4096; i++ {
		e.Schedule(Time(1<<60+i), nop) // far-future ballast
	}
	h := &holdHandler{e: e, rng: 1}
	run := func() {
		h.left = 4096
		for i := 0; i < 64; i++ {
			e.Call(Time(i), h, 0, 0)
		}
		if err := e.RunUntil(e.Now() + 1<<40); err != nil {
			t.Fatal(err)
		}
		if e.Pending() != 4096 {
			t.Fatalf("Pending = %d after a hold round, want the 4096 ballast", e.Pending())
		}
	}
	run() // warm the queue's storage
	if avg := testing.AllocsPerRun(10, run); avg > 0 {
		t.Errorf("deep hold traffic allocates %.1f times per 4096 events, want 0", avg)
	}
}
