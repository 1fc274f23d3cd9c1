package mpi

import (
	"fmt"
	"strconv"

	"mpinet/internal/dev"
	"mpinet/internal/memreg"
	"mpinet/internal/metrics"
	"mpinet/internal/msgtrace"
	"mpinet/internal/sim"
	"mpinet/internal/trace"
	"mpinet/internal/units"
)

// procState is the per-rank library state: queues, progress engine,
// endpoint, accounting. It is manipulated both by the rank's own process
// (inside MPI calls) and by delivery events from the hardware models; the
// cooperative scheduler guarantees mutual exclusion.
type procState struct {
	world *World
	// eng is the engine this rank's state lives on: the node's domain
	// engine in scale mode, the world engine otherwise. Every timestamp
	// and timer of this rank reads it, never world.eng, so rank state is
	// only ever touched from its owning shard.
	eng  *sim.Engine
	rank int
	node int
	ep   dev.Endpoint
	as   *memreg.AddressSpace
	prof *trace.Profile

	posted []*Request // receive queue, post order
	unexp  []*inMsg   // unexpected messages, arrival order

	// actions queues the host-driven protocol steps pending on this rank;
	// poll runs them from actHead and rewinds the queue once it drains.
	actions  []action
	actHead  int
	progress sim.Cond

	hostBusy sim.Time
	sendSeq  int64

	// watchdog is the rank's reusable wait timer (see waitFor): allocated on
	// first armed wait, then Arm/Stop per wait with zero allocations.
	// waitFor is not reentrant per rank, so one timer suffices.
	watchdog *sim.Timer
	wdFired  bool

	// waitWhy is the rank's default wait reason ("rank<N>:wait"), built
	// once: waitOne runs on every blocking completion, and formatting the
	// same string there dominated the MPI layer's allocation profile. It is
	// also the park reason of every point-to-point wait (see waitOp).
	waitWhy string

	// quiet suppresses point-to-point profiling while a collective runs so
	// the profile records the collective call, not its decomposition.
	quiet bool
	// Hardware-multicast bookkeeping: payloads delivered to this rank and
	// payloads its Bcast calls have consumed.
	mcSeen  int64
	mcTaken int64
	// splitGen counts Split/Dup invocations per parent communicator so
	// agreement boards never collide across generations. Nil until the first
	// Split/Dup: most ranks never split, and at a thousand ranks the empty
	// maps were a measurable slice of world construction.
	splitGen map[int]int
	// collScratch is a reusable buffer for collective intermediates.
	collScratch memreg.Buf
	// worldComm caches this rank's MPI_COMM_WORLD view. Every world
	// collective resolves it, and rebuilding the world rank list per call
	// was the single largest allocation site in 1k-rank worlds.
	worldComm *Comm
	// reqAllocs counts Request pool misses (see newRequest) for the
	// zero-alloc gates.
	reqAllocs int
	// Reusable collective scratch (offsets, counts, request lists).
	// Collectives are not reentrant per rank, so one set suffices.
	offScratch []int64
	cntScratch []int64
	reqScratch []*Request
	// nicPeers is the set of cross-node ranks this rank has exchanged NIC
	// traffic with (either direction), as a bitset over world ranks;
	// nicPeerCount is its population. Tracked only in scale mode, where
	// MemoryUsage accounts established connections rather than the static
	// full-world formula (see World.MemoryUsage). Send-side bits are set on
	// the sender's engine, receive-side bits on this rank's own engine at
	// arrival, so the set is never touched cross-shard.
	nicPeers     []uint64
	nicPeerCount int

	// Observability handles (all nil-safe no-ops when metrics are off).
	met         *metrics.Registry
	track       string // Chrome-trace thread name, "rank<N>"
	unexpHW     *metrics.Gauge
	postedHW    *metrics.Gauge
	reqHist     *metrics.SizeHist
	eagerCopies *metrics.Counter
}

// markNICPeer records peer as a rank this one holds NIC connection state
// toward (scale mode only — classic worlds keep the paper's static
// accounting). Cheap enough for every send/arrival: one bitset probe.
func (ps *procState) markNICPeer(peer int) {
	if !ps.world.scale {
		return
	}
	if ps.nicPeers == nil {
		ps.nicPeers = make([]uint64, (ps.world.cfg.Procs+63)/64)
	}
	bit := uint64(1) << (uint(peer) & 63)
	if ps.nicPeers[peer>>6]&bit == 0 {
		ps.nicPeers[peer>>6] |= bit
		ps.nicPeerCount++
	}
}

// bindMetrics resolves this rank's instrument handles. Safe with m == nil:
// every handle comes back nil and every update is a no-op.
func (ps *procState) bindMetrics(m *metrics.Registry) {
	ps.met = m
	ps.track = "rank" + strconv.Itoa(ps.rank)
	pfx := metrics.RankPrefix(ps.rank) + "mpi"
	ps.unexpHW = m.Gauge(pfx + "/unexp_depth")
	ps.postedHW = m.Gauge(pfx + "/posted_depth")
	ps.reqHist = m.SizeHist(pfx + "/req")
	ps.eagerCopies = m.Counter(metrics.NodePrefix(ps.node) + "nic/eager_copies")
	if m != nil {
		m.ProbeTime(pfx+"/host_busy", func() units.Time { return ps.hostBusy })
	}
}

// finishReq records a completed request's lifetime in the per-rank size-class
// histogram and emits an "mpi" span covering post-to-completion. Called from
// every completion site; a no-op when metrics are off.
func (ps *procState) finishReq(r *Request, name string) {
	if ps.met == nil {
		return
	}
	now := ps.eng.Now()
	ps.reqHist.Observe(r.size, now-r.born)
	ps.met.Span(metrics.Span{
		Node: ps.node, Track: ps.track, Name: name, Cat: "mpi",
		Start: r.born, End: now, Size: r.size,
	})
}

// scratch returns a persistent buffer of at least size bytes for collective
// intermediates. Persistence matters: it keeps the registration caches warm,
// as real implementations' internal buffers do.
func (ps *procState) scratch(size int64) memreg.Buf {
	if ps.collScratch.Size < size {
		ps.collScratch = ps.as.Alloc(size)
	}
	return ps.collScratch.Slice(0, size)
}

// msgKind distinguishes protocol messages at the receiver.
type msgKind int

const (
	eagerMsg msgKind = iota
	rtsMsg
)

// chKind records which channel carried a message.
type chKind int

const (
	chNet chKind = iota
	chShm
)

// inMsg is a message envelope: built by the sender, carried through the
// device as the target of its typed continuations (see msgArrive and the
// other steps), queued at the receiver until matched, and recycled once
// the receive completes (Request.complete). Envelopes come from a
// per-engine free list: taken on the sender's engine, released on the
// receiver's and returned to the sender's list.
type inMsg struct {
	comm     int // communicator context id
	src, tag int // src is a world rank
	size     int64
	tid      msgtrace.ID // trace context, carried sender -> receiver
	kind     msgKind
	ch       chKind
	matched  bool
	dst      *procState // the receiving rank
	sender   *Request   // rendezvous: the sender's request, for CTS routing
	recv     *Request   // rendezvous: the matched receive, for bulk completion
	// matchStart is when a NIC-matching device began matching the arrival,
	// for the match span.
	matchStart sim.Time
}

// msgs recycles message envelopes.
var msgs = sim.NewFreeList[inMsg]()

// newMsg takes an envelope for req's message to dst from this rank's
// engine's free list.
func (ps *procState) newMsg(req *Request, kind msgKind, ch chKind, dst *procState) *inMsg {
	m := msgs.Get(ps.eng)
	*m = inMsg{comm: req.comm, src: ps.rank, tag: req.tag, size: req.size, tid: req.tid, kind: kind, ch: ch, dst: dst}
	return m
}

// Envelope steps: the first argument of an envelope's typed continuation.
const (
	// msgArrive: the message landed at the receiver (device or shmem).
	msgArrive = iota
	// msgMatched: a NIC-matching device finished matching the arrival.
	msgMatched
	// msgCTS: the receiver's clear-to-send reached the rendezvous sender.
	msgCTS
	// msgBulkDone: the rendezvous payload is in the receive buffer.
	msgBulkDone
)

// HandleEvent implements sim.Handler: the device, the shared-memory channel
// or the NIC matcher reports the next step of this message.
func (m *inMsg) HandleEvent(step, _ int64) {
	switch step {
	case msgArrive:
		m.dst.arrive(m)
	case msgMatched:
		ps := m.dst
		ps.world.rec.Span(m.tid, msgtrace.StageMatch, ps.rank, -1, 0, -1, m.matchStart, ps.eng.Now(), m.size)
		ps.arriveMatched(m)
	case msgCTS:
		m.sender.ps.arriveCTS(m)
	case msgBulkDone:
		m.dst.bulkDone(m)
	}
}

// actKind names a host-driven protocol step.
type actKind uint8

const (
	// actDeliverEager charges cost, records the deliver span and completes
	// the matched eager receive.
	actDeliverEager actKind = iota
	// actAcceptRndv registers the receive buffer, parses the RTS and sends
	// the CTS.
	actAcceptRndv
	// actStartBulk parses the CTS at the sender and starts the bulk.
	actStartBulk
	// actRndvDeliver completes a rendezvous receive whose payload landed.
	actRndvDeliver
)

// action is one queued host-driven protocol step (see runAction).
type action struct {
	kind actKind
	req  *Request
	msg  *inMsg
	cost sim.Time
}

// record appends a timeline event if the world collects one.
func (ps *procState) record(kind trace.EventKind, peer, tag, comm int, size int64) {
	tl := ps.world.cfg.Timeline
	if tl == nil {
		return
	}
	tl.Add(trace.Event{
		At: ps.eng.Now(), Rank: ps.rank, Kind: kind,
		Peer: peer, Tag: tag, Comm: comm, Size: size,
	})
}

// busy charges host CPU time to this rank. It must be called from the
// rank's own process.
func (ps *procState) busy(p *sim.Proc, d sim.Time) {
	if d <= 0 {
		return
	}
	ps.hostBusy += d
	p.Sleep(d)
}

// enqueue adds a host-driven protocol step and pokes the progress engine so
// a rank parked inside an MPI call picks it up immediately. Steps enqueued
// while the rank computes outside MPI wait for its next MPI call — exactly
// the host-driven rendezvous limitation the overlap benchmark measures.
func (ps *procState) enqueue(a action) {
	ps.actions = append(ps.actions, a)
	ps.progress.Broadcast()
}

// poll runs all pending protocol steps, charging their host cost. Called on
// entry to every MPI operation and inside progress waits — which makes it
// the first library touch after this rank's node crashes, so the crashed
// rank's process unwinds here.
func (ps *procState) poll(p *sim.Proc) {
	if ps.world.rankDead(ps.rank) {
		panic(&rankKilled{rank: ps.rank})
	}
	for ps.actHead < len(ps.actions) {
		a := ps.actions[ps.actHead]
		ps.actions[ps.actHead] = action{}
		ps.actHead++
		ps.runAction(p, a)
	}
	ps.actions = ps.actions[:0]
	ps.actHead = 0
}

// waitFor blocks the rank inside the MPI library until pred holds,
// executing protocol steps as they arrive. It is also where job failure
// becomes visible to ranks: a recorded world fault aborts the rank here,
// and with Config.Timeout armed a cancellable watchdog bounds the wait —
// on a faulty network a rank can starve forever (peer dead, message
// unrecoverable), and the watchdog converts that hang into a typed,
// attributed error.
func (ps *procState) waitFor(p *sim.Proc, op waitOp, pred func() bool) {
	w := ps.world
	why := op.desc
	if why == "" {
		why = ps.waitWhy
	}
	if w.cfg.Timeout > 0 {
		// The watchdog is a reusable per-rank timer: one allocation the first
		// time this rank waits on a watched world, then Arm/Stop per wait —
		// the allocation-free pattern the engine's generation-stamped timers
		// exist for.
		if ps.watchdog == nil {
			ps.watchdog = ps.eng.NewTimer(func() {
				ps.wdFired = true
				ps.progress.Broadcast()
			})
		}
		ps.wdFired = false
		ps.watchdog.Arm(w.cfg.Timeout)
		defer ps.watchdog.Stop()
	}
	for {
		ps.poll(p)
		if w.faulted() {
			panic(&jobAbort{err: w.fault})
		}
		if pred() {
			return
		}
		if ps.wdFired {
			now := ps.eng.Now()
			w.rec.Flight(msgtrace.FlightTimeout, now, ps.rank, 0, msgtrace.StageWait, int64(w.cfg.Timeout), 0)
			desc := op.String()
			w.rec.Freeze("watchdog timeout: "+desc, now, ps.rank, msgtrace.StageWait, 0)
			w.fail(&TimeoutError{Rank: ps.rank, Op: desc, After: w.cfg.Timeout})
			panic(&jobAbort{err: w.fault})
		}
		ps.progress.Wait(p, why)
	}
}

// waitOp describes what a blocked rank waits for, as the TimeoutError or
// RankFailedError a wait can end in reports it. A point-to-point wait
// carries its request's fields and is formatted only when such an error is
// built — formatting per wait was a measurable share of a faulted run's
// allocations — and parks under the rank's fixed reason (waitWhy). Other
// waits carry a fixed description, which is also their park reason.
type waitOp struct {
	desc   string // fixed description; empty for a point-to-point wait
	isSend bool
	peer   int // destination of a send, source pattern of a receive
	tag    int
	size   int64
}

// String is the operation as error messages name it.
func (op waitOp) String() string {
	switch {
	case op.desc != "":
		return op.desc
	case op.isSend:
		return fmt.Sprintf("send to rank %d (tag %d, %d B)", op.peer, op.tag, op.size)
	case op.peer == AnySource:
		return fmt.Sprintf("recv from any source (tag %d)", op.tag)
	default:
		return fmt.Sprintf("recv from rank %d (tag %d)", op.peer, op.tag)
	}
}

// notify wakes the rank if it is parked in a progress wait (used by
// completion events that involve no host work).
func (ps *procState) notify() {
	ps.progress.Broadcast()
}

// match scans the posted queue for a request matching an arrival. Matching
// is scoped by communicator context, then by (source, tag) with wildcards.
func (ps *procState) matchPosted(comm, src, tag int) *Request {
	for _, r := range ps.posted {
		if r.done || r.matched != nil || r.comm != comm {
			continue
		}
		if (r.src == AnySource || r.src == src) && (r.tag == AnyTag || r.tag == tag) {
			return r
		}
	}
	return nil
}

// matchUnexpected scans arrivals for one matching a freshly posted receive.
func (ps *procState) matchUnexpected(comm, src, tag int) *inMsg {
	for _, m := range ps.unexp {
		if m.matched || m.comm != comm {
			continue
		}
		if (src == AnySource || src == m.src) && (tag == AnyTag || tag == m.tag) {
			return m
		}
	}
	return nil
}

// removePosted drops a completed request from the posted queue.
func (ps *procState) removePosted(r *Request) {
	for i, x := range ps.posted {
		if x == r {
			ps.posted = append(ps.posted[:i], ps.posted[i+1:]...)
			ps.postedHW.Set(int64(len(ps.posted)))
			return
		}
	}
}

// removeUnexpected drops a consumed arrival.
func (ps *procState) removeUnexpected(m *inMsg) {
	for i, x := range ps.unexp {
		if x == m {
			ps.unexp = append(ps.unexp[:i], ps.unexp[i+1:]...)
			ps.unexpHW.Set(int64(len(ps.unexp)))
			return
		}
	}
}
