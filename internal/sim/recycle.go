package sim

import "sync/atomic"

// freeSlots numbers the FreeList declarations of the program.
var freeSlots atomic.Int32

// FreeList recycles the per-message records of one model type (transfer
// pipelines, NIC operations, MPI envelopes, requests). The lists themselves
// live on the engines and are only ever touched by the goroutine running
// their engine, or by a group's scheduler while no shard runs, so recycling
// needs no lock in sharded worlds. Lists fill lazily — nothing is allocated
// before the first Get.
//
// A record always goes back to the list of the engine it was taken from
// (its home). A record released on another shard of the home's group waits
// on the releasing shard until the window ends, and the group scheduler
// hands it back at the barrier. So every list is balanced: an engine's
// records are either on its list or in flight, an engine allocates only
// when all of them are in flight, and its list never holds more than the
// peak number it has had in flight at once.
//
// A FreeList value is a key, declared once per record type at package
// level.
type FreeList[T any] struct{ slot int32 }

// NewFreeList declares a free list for records of type T.
func NewFreeList[T any]() FreeList[T] {
	return FreeList[T]{slot: freeSlots.Add(1) - 1}
}

// freeStack is one engine's list for one record type.
type freeStack[T any] struct {
	slot  int32
	items []*T
	// away[h] holds records released on this engine whose home is shard h
	// of the group, until the barrier hands them back; queued is set while
	// the stack is on its engine's away list.
	away   [][]*T
	queued bool
}

// stack returns e's list for this record type, creating it on first use.
func (f FreeList[T]) stack(e *Engine) *freeStack[T] {
	if int(f.slot) < len(e.free) {
		if s, ok := e.free[f.slot].(*freeStack[T]); ok {
			return s
		}
	}
	for int(f.slot) >= len(e.free) {
		e.free = append(e.free, nil)
	}
	s := &freeStack[T]{slot: f.slot}
	e.free[f.slot] = s
	return s
}

// Get returns a zeroed record: a recycled one from e's list, or a new one.
// e is the engine whose goroutine is running, and becomes the record's
// home.
func (f FreeList[T]) Get(e *Engine) *T {
	x, _ := f.Take(e)
	return x
}

// Take is Get that also reports whether the record was newly allocated.
func (f FreeList[T]) Take(e *Engine) (*T, bool) {
	s := f.stack(e)
	if n := len(s.items); n > 0 {
		x := s.items[n-1]
		s.items[n-1] = nil
		s.items = s.items[:n-1]
		return x, false
	}
	return new(T), true
}

// Put zeroes x and returns it to home's list; e is the engine whose
// goroutine is running and home the engine x was taken from. When they
// are different shards of one group, x is handed back at the next window
// barrier. The caller must hold no further reference to x: a later Get on
// home hands it out again.
func (f FreeList[T]) Put(e, home *Engine, x *T) {
	var zero T
	*x = zero
	if home == e {
		s := f.stack(e)
		s.items = append(s.items, x)
		return
	}
	if e.owner == nil || home.owner != e.owner {
		return // no barrier would hand it back: leave it to the collector
	}
	s := f.stack(e)
	for home.shard >= len(s.away) {
		s.away = append(s.away, nil)
	}
	s.away[home.shard] = append(s.away[home.shard], x)
	if !s.queued {
		s.queued = true
		e.away = append(e.away, s)
	}
}

// homeward is a free list holding records released away from their home.
type homeward interface {
	handBack(g *Sharded)
}

// handBack moves the records released on this stack's engine to their home
// shards' lists. Only the group scheduler calls it, between windows.
func (s *freeStack[T]) handBack(g *Sharded) {
	f := FreeList[T]{slot: s.slot}
	for h, recs := range s.away {
		if len(recs) == 0 {
			continue
		}
		home := f.stack(g.shards[h])
		home.items = append(home.items, recs...)
		clear(recs)
		s.away[h] = recs[:0]
	}
	s.queued = false
}

// returnRecords hands every record released away from its home during the
// last window back to its home's list. The shards are all stopped, so the
// scheduler may touch every engine's lists.
func (g *Sharded) returnRecords() {
	for _, e := range g.shards {
		for i, s := range e.away {
			s.handBack(g)
			e.away[i] = nil
		}
		e.away = e.away[:0]
	}
}
