package fabric

import (
	"testing"

	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// benchPath builds the canonical three-stage host→switch→host path the NIC
// models drive: egress link, switch output port, ingress link.
func benchPath() []PathStage {
	return []PathStage{
		{Stage: sim.NewPipe("up", units.MBps(1000), 0, 0), Latency: 100 * units.Nanosecond},
		{Stage: sim.NewPipe("out", units.MBps(1000), 0, 0), Latency: 100 * units.Nanosecond},
		{Stage: sim.NewPipe("down", units.MBps(1000), 0, 0), Latency: 100 * units.Nanosecond},
	}
}

// doneFlag is a typed completion target for the allocation gates: a
// closure continuation would itself allocate.
type doneFlag bool

func (d *doneFlag) HandleEvent(int64, int64) { *d = true }

// BenchmarkTransferChunk measures the per-chunk cost of the cut-through
// pipeline in steady state: one op is one chunk traversing all three stages
// (three stage events plus the self-clocking of its successor). The chunk
// progression is a typed-event path and must report zero allocations per
// chunk; a warm-up transfer before the timer fills the engine's event slab
// and the transfer-record free list, so the timed transfer allocates
// nothing at all.
func BenchmarkTransferChunk(b *testing.B) {
	e := sim.New()
	path := benchPath()
	const chunk = 2048
	var warm doneFlag
	Transfer(e, path, 4*chunk, chunk, 0, sim.Callback{H: &warm})
	if err := e.Run(); err != nil || !warm {
		b.Fatal("warm-up transfer did not complete", err)
	}
	size := int64(b.N) * chunk
	var done doneFlag
	b.ReportAllocs()
	b.ResetTimer()
	Transfer(e, path, size, chunk, e.Now(), sim.Callback{H: &done})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if !done {
		b.Fatal("transfer did not complete")
	}
}

// TestTransferSteadyStateZeroAlloc asserts the benchmark's claim: past the
// one xfer record per message, pushing more chunks through a path must not
// allocate. Measured by subtraction so the fixed setup (engine, pipes, the
// event slice warm-up) cancels.
func TestTransferSteadyStateZeroAlloc(t *testing.T) {
	run := func(nchunks int64) float64 {
		return testing.AllocsPerRun(5, func() {
			e := sim.New()
			path := benchPath()
			Transfer(e, path, nchunks*512, 512, 0, onDone(e, func(sim.Time) {}))
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := run(32), run(2080)
	per := (large - small) / float64(2080-32)
	if per > 0.001 {
		t.Errorf("transfer allocates %.4f per chunk in steady state, want 0", per)
	}
}

// chain issues count transfers back to back through one path: each
// completion starts the next message.
type chain struct {
	e     *sim.Engine
	path  []PathStage
	size  int64
	count int
}

func (c *chain) HandleEvent(int64, int64) {
	if c.count == 0 {
		return
	}
	c.count--
	Transfer(c.e, c.path, c.size, ChunkFor(c.size), c.e.Now(), sim.Callback{H: c})
}

// TestTransferPerMessageZeroAlloc is the per-message gate: transfer records
// are recycled through the engine's free list, so N and then 2N back-to-back
// messages through one path on one engine must allocate exactly the same —
// world setup and the first record cancel, and no message costs anything.
func TestTransferPerMessageZeroAlloc(t *testing.T) {
	run := func(msgs int) float64 {
		return testing.AllocsPerRun(5, func() {
			c := &chain{e: sim.New(), path: benchPath(), size: 3000, count: msgs}
			c.HandleEvent(0, 0)
			if err := c.e.Run(); err != nil {
				t.Fatal(err)
			}
			if c.count != 0 {
				t.Fatalf("%d messages left undelivered", c.count)
			}
		})
	}
	const n = 200
	if one, two := run(n), run(2*n); two != one {
		t.Errorf("%d messages allocate %.0f, %d allocate %.0f: %.3f allocations per message, want 0",
			n, one, 2*n, two, (two-one)/n)
	}
}
