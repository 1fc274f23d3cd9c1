//go:build go1.23

package sim

import (
	"errors"
	"fmt"
	"iter"
)

// Proc is a simulated process: a pull coroutine (iter.Pull) whose execution
// is interleaved with the event loop so that exactly one of (engine, some
// process) runs at a time. A Proc advances the virtual clock only by
// blocking — Sleep for compute time, Cond.Wait for synchronization — and
// therefore reads as ordinary sequential code.
//
// A runtime.Goexit inside a process (t.FailNow in a rank program, say)
// cannot be recovered into a process failure: iter.Pull re-raises it on the
// goroutine that resumed the process. On a serial engine that is the Run
// caller's goroutine, which exits; on a Sharded group whose shard runs on a
// worker, the worker hands the coordinator a *ProcFailure naming the
// process, so Run re-panics instead of hanging.
type Proc struct {
	eng  *Engine
	name string

	// next and yield are the two ends of the process's coroutine. The
	// engine's next runs the process until it parks or finishes; the
	// process's yield (in park) suspends it and returns control to that
	// next call. A coroutine switch hands the running thread straight to
	// the other side without a trip through the goroutine scheduler, and
	// only one side of the pair can run at a time — the exactly-one-runner
	// invariant the cooperative model depends on. The last value yielded
	// is the finish report.
	next  func() (parkMsg, bool)
	yield func(parkMsg) bool

	// blockedOn describes what the process is waiting for; surfaced in
	// deadlock reports.
	blockedOn string

	// blocked/slept accounting. Updated only while this process runs —
	// the engine is suspended in next — so plain fields are race-free.
	blocked Time // time parked on conditions (waiting, not computing)
	slept   Time // time parked in Sleep (modelled compute)
}

// parkMsg is what a process yields to the engine: the zero value on every
// park, and finished (with the panic value, if any) once fn has ended.
type parkMsg struct {
	finished bool
	panicked interface{}
}

// errProcGoexit is the ProcFailure value a Sharded group reports when a
// process on a worker-dispatched shard called runtime.Goexit.
var errProcGoexit = errors.New("sim: process called runtime.Goexit")

// Spawn creates a process named name running fn, starting at the current
// simulated time. fn runs on its own coroutine, and only while the engine
// has resumed it.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.next, _ = iter.Pull(func(yield func(parkMsg) bool) {
		p.yield = yield
		yield(p.run(fn))
	})
	e.procs[p] = struct{}{}
	e.schedProc(p, 0)
	return p
}

// run calls fn and builds the finish report, recovering a panic into it.
// A runtime.Goexit never returns from run; the deferred report then leaves
// a typed failure on the engine for a shard worker to hand its coordinator
// (Sharded.startWorkers).
func (p *Proc) run(fn func(p *Proc)) (m parkMsg) {
	returned := false
	defer func() {
		m = parkMsg{finished: true, panicked: recover()}
		if !returned && m.panicked == nil {
			p.eng.failure = &ProcFailure{Proc: p.name, Value: errProcGoexit}
		}
	}()
	fn(p)
	returned = true
	return m
}

// step resumes p and blocks the engine until p parks or finishes. A
// finished process is resumed once more so its pulled function returns and
// the coroutine's goroutine exits; dropping the coroutine's closures then
// leaves a Proc that model code still references holding nothing else.
func (e *Engine) step(p *Proc) {
	m, _ := p.next()
	if m.finished {
		p.next()
		p.next, p.yield = nil, nil
		delete(e.procs, p)
		if m.panicked != nil {
			e.failure = &ProcFailure{Proc: p.name, Value: m.panicked}
		}
	}
}

// HandleEvent implements Handler: a wake event reached its instant, so the
// engine resumes this process. Engine use only — model code wakes processes
// through Cond, Sleep and Yield.
func (p *Proc) HandleEvent(int64, int64) { p.eng.step(p) }

// park yields control back to the engine and suspends until somebody
// resumes this process via a wake event.
func (p *Proc) park(why string) {
	p.blockedOn = why
	t0 := p.eng.now
	p.yield(parkMsg{})
	d := p.eng.now - t0
	if why == "sleep" {
		p.slept += d
		p.eng.slept += d
	} else {
		p.blocked += d
		p.eng.blocked += d
	}
	p.blockedOn = ""
}

// wake schedules an event that transfers control back to p. It must be
// called while the engine, or a process it has resumed, is running. The
// wake is a typed event — no closure, no allocation — which matters
// because every Sleep, Yield and Cond wakeup in the simulator passes
// through here.
func (p *Proc) wake(delay Time) {
	p.eng.schedProc(p, delay)
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// BlockedTime reports how long this process has spent parked on conditions
// (message waits, resource queues) — sleep time is excluded.
func (p *Proc) BlockedTime() Time { return p.blocked }

// SleptTime reports how long this process has spent in Sleep.
func (p *Proc) SleptTime() Time { return p.slept }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Sleep advances simulated time by d from this process's perspective,
// modelling computation or a busy-wait of known length.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v", d))
	}
	if d == 0 {
		return
	}
	p.wake(d)
	p.park("sleep")
}

// Yield parks the process and immediately re-queues it, letting every event
// already scheduled for the current instant run first.
func (p *Proc) Yield() {
	p.wake(0)
	p.park("yield")
}

// Cond is an engine-level condition: processes wait on it, and model code
// (event callbacks or other processes) signals it. Unlike sync.Cond there is
// no associated lock — the cooperative scheduler already guarantees mutual
// exclusion — but waiters must re-check their predicate after waking, as
// wakeups are ordered but not exclusive.
type Cond struct {
	waiters []*Proc
}

// Wait parks the calling process until the condition is signalled. why is
// used in deadlock reports.
func (c *Cond) Wait(p *Proc, why string) {
	c.waiters = append(c.waiters, p)
	p.park(why)
}

// Broadcast wakes every current waiter, in wait order. The waiter slice's
// backing array is kept for reuse: wakes only schedule events, so no waiter
// can re-append until after the loop completes.
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters = c.waiters[:0]
	for _, p := range ws {
		p.wake(0)
	}
}

// Signal wakes the oldest waiter, if any.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	n := copy(c.waiters, c.waiters[1:])
	c.waiters = c.waiters[:n]
	p.wake(0)
}

// WaitUntil parks p until pred() holds, re-checking at every broadcast of c.
func (c *Cond) WaitUntil(p *Proc, why string, pred func() bool) {
	for !pred() {
		c.Wait(p, why)
	}
}
