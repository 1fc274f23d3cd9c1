package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The reference workload: a fixed piece of work in the simulator's own mix
// (an event heap, scattered per-entity state, goroutine handoff over
// unbuffered channels), plus a pointer chase through memory no cache holds
// for the memory-bound share (the collector marking a large heap), built only
// from the standard library, so no change to the simulator moves it. Timed
// beside the workload's timed regions, it gives the host's current speed. It
// allocates nothing, so its time does not depend on the garbage the workload
// left behind.

const (
	refQueue      = 1 << 16 // pending events
	refState      = 1 << 21 // 8-byte words of scattered state (16 MB)
	refEvents     = 1 << 17 // events per reference unit
	refHandEv     = 4       // a goroutine handoff every refHandEv events
	refChase      = 1 << 24 // links of the pointer chase (128 MB)
	refChaseSteps = 1 << 18 // chase steps per reference unit
)

type refEvent struct {
	at  uint64
	idx uint64
}

// offHeap maps n zeroed values of T outside the Go heap, so that the
// reference workload's state neither counts in heap_live_mb nor changes the
// collector's pacing for the simulator. T must hold no pointers.
func offHeap[T any](n int) []T {
	var zero T
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		panic("perfbench: mapping the reference state: " + err.Error())
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

var (
	refMem           = offHeap[uint64](refState) // scattered per-entity state
	refHeap          = offHeap[refEvent](refQueue)
	refLinks         = chaseLinks()
	refPing, refPong = make(chan struct{}), make(chan struct{})
	refSink          uint64
)

func init() {
	// The handoff partner answers every ping with a pong.
	go func() {
		for range refPing {
			refPong <- struct{}{}
		}
	}()
}

// refUnit runs one unit of the reference workload and returns its duration.
func refUnit() time.Duration {
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	h := refHeap
	for i := range h {
		h[i] = refEvent{next() % 1e6, uint64(i)}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		refDown(h, i)
	}

	start := time.Now()
	var sum uint64
	for i := 0; i < refEvents; i++ {
		e := h[0]
		j := (e.idx*0x9e3779b97f4a7c15 + e.at) % refState
		refMem[j] += e.at
		sum += refMem[(j*31)%refState]
		if i%refHandEv == 0 {
			refPing <- struct{}{}
			<-refPong
		}
		h[0].at = e.at + 1 + next()%4096
		refDown(h, 0)
	}
	p := uint64(0)
	for i := 0; i < refChaseSteps; i++ {
		p = refLinks[p]
	}
	d := time.Since(start)
	refSink += sum + p
	return d
}

// chaseLinks builds one cycle through all refChase links in a scrambled
// order: link i holds (a·i + c) mod refChase, a full-period LCG (a ≡ 1 mod 4,
// c odd), so each step is a load that depends on the last one and lands
// on a cache line the hardware cannot predict.
func chaseLinks() []uint64 {
	l := offHeap[uint64](refChase)
	for i := range l {
		l[i] = (uint64(i)*0x5DEECE66D + 11) % refChase
	}
	return l
}

// refDown restores the min-heap order below i.
func refDown(h []refEvent, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r].at < h[l].at {
			m = r
		}
		if h[i].at <= h[m].at {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
