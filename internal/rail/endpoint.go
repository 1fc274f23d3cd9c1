package rail

import (
	"errors"
	"fmt"

	"mpinet/internal/dev"
	"mpinet/internal/faults"
	"mpinet/internal/memreg"
	"mpinet/internal/msgtrace"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// bondDispatch is the host cost of the bonding layer's per-operation
// scheduling decision (rail selection, sequence stamp). It sits on top of
// the member device's own SendOverhead, the way a channel-bonding driver
// sits above the NIC library.
const bondDispatch = 120 * units.Nanosecond

// opKind distinguishes the three device verbs so a failed operation can be
// re-issued with the right one.
type opKind int

const (
	opEager opKind = iota
	opControl
	opBulk
)

// op is one bond-level operation in flight: an eager packet, a control
// message, a rendezvous bulk, or one stripe chunk of a bulk (parent set).
type op struct {
	ep   *endpoint
	kind opKind
	dst  int
	size int64
	seq  uint64 // per-(src,dst) order stamp; unused on stripe chunks
	born sim.Time
	fire sim.Callback // the MPI layer's continuation
	done bool         // landed or permanently failed; late deliveries suppressed
	tid  msgtrace.ID  // trace context captured at send, carried across re-issues
	// attempt counts bond-level issues of this op (0 on the first), so
	// failover re-issues are distinguishable from the original in the trace
	// — the NIC's own retry counter restarts per rail.
	attempt uint8

	// striping state: chunks carry parent; the parent op itself is never
	// issued on a device, it completes when its last chunk lands.
	parent    *op
	chunks    int
	landedN   int
	firstLand sim.Time
}

// wire returns the operation's packet size on the wire, mirroring the
// device models' conventions (eager adds a 32-byte envelope, control
// messages are 64 bytes). Failover uses it to match a device's LinkError
// back to the op that suffered it.
func (o *op) wire() int64 {
	switch o.kind {
	case opEager:
		return o.size + 32
	case opControl:
		return 64
	default:
		return o.size
	}
}

// endpoint is one process's attachment to the bond: a member endpoint per
// rail, plus per-rail FIFOs of in-flight operations for failure matching
// and stall detection.
type endpoint struct {
	net     *Network
	node    int
	eps     []dev.Endpoint
	pending [][]*op
	sink    func(error)
}

// NewEndpoint implements dev.Network: it attaches the process to every
// member rail and routes the members' fault and retransmit reports into
// the bond's escalation ladder and health monitor.
func (n *Network) NewEndpoint(node int) dev.Endpoint {
	ep := &endpoint{
		net:     n,
		node:    node,
		pending: make([][]*op, len(n.rails)),
	}
	for r, rn := range n.rails {
		rep := rn.NewEndpoint(node)
		ep.eps = append(ep.eps, rep)
		r := r
		if fr, ok := rep.(dev.FaultReporter); ok {
			fr.OnFault(func(err error) { ep.railFailed(r, err) })
		}
		if rr, ok := rep.(dev.RetryReporter); ok {
			rr.OnRetry(func() { n.mon[r].retransmit() })
		}
	}
	n.eps = append(n.eps, ep)
	return ep
}

// active is the member endpoint cost queries delegate to: the current
// preferred rail (primary while healthy). With every rail dead the primary
// still answers cost queries — the job is about to die on a typed error
// anyway, and parameters must stay well-defined until it does.
func (ep *endpoint) active() dev.Endpoint {
	r, ok := ep.net.pickRail(-1)
	if !ok {
		r = 0
	}
	return ep.eps[r]
}

// Node implements dev.Endpoint.
func (ep *endpoint) Node() int { return ep.node }

// EagerThreshold implements dev.Endpoint: the active rail's protocol
// switch point.
func (ep *endpoint) EagerThreshold() int64 { return ep.active().EagerThreshold() }

// SendOverhead implements dev.Endpoint: the bond's dispatch decision plus
// the active rail's own initiation cost.
func (ep *endpoint) SendOverhead(size int64) sim.Time {
	return bondDispatch + ep.active().SendOverhead(size)
}

// RecvOverhead implements dev.Endpoint.
func (ep *endpoint) RecvOverhead(size int64) sim.Time { return ep.active().RecvOverhead(size) }

// CopyTime implements dev.Endpoint.
func (ep *endpoint) CopyTime(size int64) sim.Time { return ep.active().CopyTime(size) }

// AcquireBuf implements dev.Endpoint. Under Failover only the active rail
// needs the buffer; under Stripe every rail that may carry a chunk must be
// able to DMA it, so the registration costs sum.
func (ep *endpoint) AcquireBuf(b memreg.Buf) sim.Time {
	if ep.net.tun.Policy == Stripe {
		var total sim.Time
		for _, r := range ep.net.stripeSet() {
			total += ep.eps[r].AcquireBuf(b)
		}
		return total
	}
	return ep.active().AcquireBuf(b)
}

// AcquireOnEager implements dev.Endpoint.
func (ep *endpoint) AcquireOnEager() bool { return ep.active().AcquireOnEager() }

// NICProgress implements dev.Endpoint. The bonding layer is host-driven
// (rail selection, sequencing and reassembly run on the host), so the bond
// never advertises NIC-side rendezvous progress even when a member NIC
// (Elan) could offer it.
func (ep *endpoint) NICProgress() bool { return false }

// IssueStall implements dev.Endpoint.
func (ep *endpoint) IssueStall() sim.Time { return ep.active().IssueStall() }

// MemoryUsage implements dev.Endpoint: a bonded process holds every
// member's connection state.
func (ep *endpoint) MemoryUsage(npeers int) int64 {
	var total int64
	for _, rep := range ep.eps {
		total += rep.MemoryUsage(npeers)
	}
	return total
}

// OnFault implements dev.FaultReporter for the bond itself: the sink
// receives only bond-level permanent failures (AllRailsError) — single-
// rail deaths are absorbed by failover.
func (ep *endpoint) OnFault(sink func(err error)) { ep.sink = sink }

// Eager implements dev.Endpoint.
func (ep *endpoint) Eager(dst int, size int64, done sim.Callback) {
	ep.net.send(ep, opEager, dst, size, done)
}

// Control implements dev.Endpoint.
func (ep *endpoint) Control(dst int, done sim.Callback) {
	ep.net.send(ep, opControl, dst, 0, done)
}

// Bulk implements dev.Endpoint.
func (ep *endpoint) Bulk(dst int, size int64, done sim.Callback) {
	ep.net.send(ep, opBulk, dst, size, done)
}

// send stamps the operation into its pair's sequence space, wakes the
// health monitors, and routes it by policy: stripe eligible bulks across
// the healthy set, everything else onto the preferred live rail. With no
// live rail left the send fails typed immediately.
func (n *Network) send(ep *endpoint, kind opKind, dst int, size int64, done sim.Callback) {
	n.issued++
	pr := n.pairOf(ep.node, dst)
	o := &op{
		ep:   ep,
		kind: kind,
		dst:  dst,
		size: size,
		seq:  pr.sendSeq,
		born: n.eng.Now(),
		fire: done,
		tid:  n.rec.Cur(),
	}
	pr.sendSeq++
	n.armMonitors()
	if kind == opBulk && n.tun.Policy == Stripe && size >= n.tun.StripeThreshold {
		if set := n.stripeSet(); len(set) > 1 {
			ep.stripe(o, set)
			return
		}
	}
	r, ok := n.pickRail(-1)
	if !ok {
		ep.allDown(o, nil)
		return
	}
	ep.issue(o, r)
}

// issue hands the operation (or stripe chunk) to one member rail and
// tracks it in that rail's in-flight FIFO until it lands or fails. The
// trace context is (re)installed around the member dispatch so the device
// model picks up the message ID and rail index — on the first issue this
// mirrors the MPI layer's own scoped handoff; on a failover re-issue (an
// event context with no caller-installed scope) it is what keeps the
// re-issued operation attached to its original message.
func (ep *endpoint) issue(o *op, r int) {
	ep.pending[r] = append(ep.pending[r], o)
	ep.net.inflight++
	rec := ep.net.rec
	if rec.Sampled(o.tid) {
		// Zero-length marker on the first issue (the selection decision);
		// on a re-issue the span covers born->now, the time the message
		// spent on rails that failed under it — the failover penalty the
		// blame analyzer charges to the rail layer.
		start := ep.net.eng.Now()
		if o.attempt > 0 {
			start = o.born
		}
		rec.Span(o.tid, msgtrace.StageRail, ep.node, int8(r), o.attempt, -1,
			start, ep.net.eng.Now(), o.size)
	}
	cb := sim.Callback{H: o, A: int64(r)}
	rec.SetCur(o.tid)
	rec.SetCurRail(int8(r))
	switch o.kind {
	case opEager:
		ep.eps[r].Eager(o.dst, o.size, cb)
	case opControl:
		ep.eps[r].Control(o.dst, cb)
	default:
		ep.eps[r].Bulk(o.dst, o.size, cb)
	}
	rec.ClearCur()
}

// stripe splits a bulk across the given rails: an even split with the
// remainder on the first rail, reassembled by a countdown on the parent.
func (ep *endpoint) stripe(o *op, set []int) {
	k := int64(len(set))
	base := o.size / k
	rem := o.size - base*k
	o.chunks = len(set)
	for i, r := range set {
		sz := base
		if i == 0 {
			sz += rem
		}
		c := &op{ep: ep, kind: opBulk, dst: o.dst, size: sz, born: o.born, parent: o, tid: o.tid}
		ep.net.stripeChunks.Inc()
		ep.issue(c, r)
	}
}

// HandleEvent implements sim.Handler: the operation landed on rail a.
func (o *op) HandleEvent(a, _ int64) { o.ep.landed(o, int(a)) }

// landed is every member delivery callback: suppress late duplicates,
// retire the op from its rail FIFO, reassemble stripes, and push the
// completed message through the pair's reorder buffer.
func (ep *endpoint) landed(o *op, r int) {
	n := ep.net
	if o.done {
		n.dupSuppressed.Inc()
		return
	}
	o.done = true
	ep.unpend(o, r)
	n.inflight--
	n.mon[r].delivered()
	if p := o.parent; p != nil {
		now := n.eng.Now()
		if p.landedN == 0 {
			p.firstLand = now
		}
		p.landedN++
		if p.landedN == p.chunks {
			n.stripeImbal.Add(now - p.firstLand)
			n.complete(p)
		}
		return
	}
	n.complete(o)
}

// complete pushes a fully landed message into its pair's reorder buffer.
func (n *Network) complete(o *op) {
	n.arrived(o.ep.node, o.dst, o.seq, o.fire)
}

// unpend removes o from rail r's in-flight FIFO.
func (ep *endpoint) unpend(o *op, r int) {
	q := ep.pending[r]
	for i, p := range q {
		if p == o {
			ep.pending[r] = append(q[:i], q[i+1:]...)
			return
		}
	}
}

// railFailed is the escalation ladder's middle rung: a member device
// exhausted its NIC-level retry budget. The rail is declared dead, the
// doomed operation is matched out of the rail's in-flight FIFO and
// re-issued on the surviving preferred rail under a bumped pair epoch.
// Only when no live rail remains does the failure escalate to the MPI
// layer, typed ErrAllRailsDown.
func (ep *endpoint) railFailed(r int, err error) {
	n := ep.net
	n.mon[r].hardFail()
	o := ep.matchFailure(r, err)
	if o == nil {
		// Nothing in flight matches the report — this cannot happen with
		// the current device models (one failure per issued transfer), so
		// escalate rather than swallow a failure.
		ep.fail(fmt.Errorf("rail %s: unmatched device failure: %w", n.rails[r].Name(), err))
		return
	}
	ep.unpend(o, r)
	n.inflight--
	nr, ok := n.pickRail(r)
	if !ok {
		ep.allDown(o, err)
		return
	}
	n.failovers.Inc()
	n.reissuedBytes.Add(o.wire())
	top := o
	if o.parent != nil {
		top = o.parent
	}
	n.pairOf(ep.node, top.dst).epoch++
	if o.attempt < ^uint8(0) {
		o.attempt++
	}
	n.rec.Flight(msgtrace.FlightFailover, n.eng.Now(), ep.node, o.tid,
		msgtrace.StageRail, int64(r), int64(nr))
	ep.issue(o, nr)
}

// matchFailure finds the in-flight operation a device failure report
// refers to: the oldest op on that rail with the failure's destination and
// wire size, falling back to destination only, then to the rail's oldest.
func (ep *endpoint) matchFailure(r int, err error) *op {
	q := ep.pending[r]
	var le *faults.LinkError
	if errors.As(err, &le) {
		for _, o := range q {
			if o.dst == le.Dst && o.wire() == le.Bytes {
				return o
			}
		}
		for _, o := range q {
			if o.dst == le.Dst {
				return o
			}
		}
	}
	if len(q) > 0 {
		return q[0]
	}
	return nil
}

// allDown retires the operation with the bond's typed terminal error.
func (ep *endpoint) allDown(o *op, last error) {
	o.done = true
	top := o
	if o.parent != nil {
		top = o.parent
		top.done = true
	}
	// Stamp the doomed operation into the flight ring before escalating:
	// the MPI layer's freeze site sees only an error, and this entry is
	// what lets the recorder name the message that ran out of rails.
	ep.net.rec.Flight(msgtrace.FlightRailDown, ep.net.eng.Now(), ep.node, o.tid,
		msgtrace.StageRail, int64(len(ep.net.rails)), o.wire())
	ep.fail(&AllRailsError{
		Src:   ep.node,
		Dst:   top.dst,
		Bytes: o.wire(),
		Rails: len(ep.net.rails),
		Last:  last,
	})
}

// fail delivers a bond-level permanent failure to the installed sink, or
// panics without one — matching the member devices' convention that
// permanent failures must never be silently dropped.
func (ep *endpoint) fail(err error) {
	if ep.sink == nil {
		panic(fmt.Sprintf("rail: permanent failure with no OnFault sink installed: %v", err))
	}
	ep.sink(err)
}

var _ dev.Endpoint = (*endpoint)(nil)
var _ dev.FaultReporter = (*endpoint)(nil)
