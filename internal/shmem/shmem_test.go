package shmem

import (
	"testing"
	"testing/quick"

	"mpinet/internal/sim"
	"mpinet/internal/units"
)

func TestCopyTimeCacheModel(t *testing.T) {
	ch := New(sim.New(), DefaultConfig())
	cfg := DefaultConfig()
	// In-cache copies run at cache bandwidth.
	small := ch.CopyTime(64 * units.KB)
	if want := cfg.CacheBW.TimeFor(64 * units.KB); small != want {
		t.Fatalf("in-cache copy = %v, want %v", small, want)
	}
	// Past the knee the marginal rate is memory bandwidth.
	a := ch.CopyTime(cfg.CacheSize + units.MB)
	b := ch.CopyTime(cfg.CacheSize + 2*units.MB)
	marginal := b - a
	if want := cfg.MemBW.TimeFor(units.MB); marginal != want {
		t.Fatalf("marginal rate = %v per MB, want %v", marginal, want)
	}
}

func TestCopyTimeZeroAndNegative(t *testing.T) {
	ch := New(sim.New(), DefaultConfig())
	if ch.CopyTime(0) != 0 || ch.CopyTime(-5) != 0 {
		t.Fatal("degenerate sizes should cost nothing")
	}
}

func TestCopyTimeMonotone(t *testing.T) {
	ch := New(sim.New(), DefaultConfig())
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return ch.CopyTime(x) <= ch.CopyTime(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDeliverAfterHalfHandshake(t *testing.T) {
	eng := sim.New()
	ch := New(eng, DefaultConfig())
	var at sim.Time
	ch.Deliver(sim.Callback{H: sim.Func(func() { at = eng.Now() })})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if at != ch.HalfHandshake() {
		t.Fatalf("delivered at %v, want %v", at, ch.HalfHandshake())
	}
}

func TestSegmentSize(t *testing.T) {
	cfg := DefaultConfig()
	ch := New(sim.New(), cfg)
	if ch.SegmentSize() != cfg.SegmentSize {
		t.Fatal("segment size mismatch")
	}
}

func TestEffectiveLargeCopySlower(t *testing.T) {
	ch := New(sim.New(), DefaultConfig())
	smallRate := float64(64*units.KB) / ch.CopyTime(64*units.KB).Seconds()
	largeRate := float64(4*units.MB) / ch.CopyTime(4*units.MB).Seconds()
	if largeRate >= smallRate {
		t.Fatalf("cache thrash missing: large %.0f >= small %.0f B/s", largeRate, smallRate)
	}
}
