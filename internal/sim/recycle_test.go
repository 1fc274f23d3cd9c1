package sim

import "testing"

type recycled struct{ a, b int64 }

var recycledList = NewFreeList[recycled]()

// TestFreeListKeepsPeak pins the single-engine rule: an engine keeps every
// record it has had out at once, however many that is, so once its peak
// is reached it allocates nothing, and recycled records come back zeroed.
func TestFreeListKeepsPeak(t *testing.T) {
	e := New()
	const n = 1000
	out := make([]*recycled, n)
	for round := 0; round < 4; round++ {
		for i := range out {
			x, fresh := recycledList.Take(e)
			if fresh != (round == 0) {
				t.Fatalf("round %d, take %d: fresh = %v", round, i, fresh)
			}
			if *x != (recycled{}) {
				t.Fatalf("round %d: recycled record not zeroed: %+v", round, *x)
			}
			x.a, x.b = int64(i), 1
			out[i] = x
		}
		for _, x := range out {
			recycledList.Put(e, e, x)
		}
	}
	if got := len(recycledList.stack(e).items); got != n {
		t.Errorf("engine keeps %d records, want its peak %d", got, n)
	}

	// A record released on an engine outside any group has no barrier to
	// go home at: it is left to the collector, on neither list.
	other := New()
	recycledList.Put(other, e, recycledList.Get(e))
	if a, b := len(recycledList.stack(e).items), len(recycledList.stack(other).items); a != n-1 || b != 0 {
		t.Errorf("after a release outside a group: home keeps %d, releaser %d; want %d and 0", a, b, n-1)
	}
}

// relay takes a record on shard 0 per event and sends it to shard 1, which
// releases it: one-way traffic, every record freed away from its home.
type relay struct {
	src, dst *Engine
	recs     []*recycled
	fresh    int
}

func (r *relay) HandleEvent(i, onDst int64) {
	if onDst == 0 {
		x, fresh := recycledList.Take(r.src)
		if fresh {
			r.fresh++
		}
		x.a = i
		r.recs[i] = x
		r.src.SendTo(1, testHop, r, i, 1)
		return
	}
	x := r.recs[i]
	r.recs[i] = nil
	if x.a != i {
		panic("relay: record changed in flight")
	}
	recycledList.Put(r.dst, r.src, x)
}

// TestFreeListHandsBackAcrossShards pins the cross-shard rule: records
// released on another shard go back to their home's list at the window
// barrier, so one-way traffic neither piles records up on the receiving
// shard nor makes the sending shard allocate once its peak in flight is
// reached.
func TestFreeListHandsBackAcrossShards(t *testing.T) {
	g := NewSharded(2, testHop)
	r := &relay{src: g.Shard(0), dst: g.Shard(1), recs: make([]*recycled, 2000)}
	send := func(from, to int) {
		for i := from; i < to; i++ {
			r.src.Call(Time(i-from)*testHop/4, r, int64(i), 0)
		}
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
	}
	send(0, 1000)
	first := r.fresh
	if first == 0 || first >= 1000 {
		t.Fatalf("1000 one-way records took %d allocations: records are not coming home between windows", first)
	}
	if home, away := len(recycledList.stack(r.src).items), len(recycledList.stack(r.dst).items); home != first || away != 0 {
		t.Errorf("after the run: home keeps %d, receiver %d; want %d and 0", home, away, first)
	}
	send(1000, 2000)
	if r.fresh != first {
		t.Errorf("a second run of the same traffic allocated %d more records", r.fresh-first)
	}
}
