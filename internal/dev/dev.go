// Package dev defines the service-provider interface between the MPI
// library and an interconnect model — the simulation analogue of MPICH's
// ADI2/Channel boundary — and the fabric attachment the three NIC models
// share.
//
// The MPI point-to-point engine (internal/mpi) implements the eager and
// rendezvous protocols once; each interconnect (internal/verbs, internal/gm,
// internal/elan) supplies an Endpoint that prices host participation,
// registration, and wire movement according to its hardware. Everything that
// differentiates the three MPI implementations in the paper enters through
// this interface:
//
//   - host overheads (Figure 3) via SendOverhead/RecvOverhead,
//   - protocol switch points (Figures 1, 2, 7, 8) via EagerThreshold,
//   - registration / NIC-MMU cost (Figures 7, 8) via AcquireBuf and
//     AcquireOnEager,
//   - NIC-driven rendezvous progress (Figure 6) via NICProgress,
//   - command-queue backpressure (Figure 2's Quadrics window-16 sag) via
//     IssueStall,
//   - per-connection memory (Figure 13) via MemoryUsage,
//   - the intra-node channel policy (Figures 9, 10, 25) via ShmemBelow.
//
// The network side that does not depend on the NIC's protocol lives once,
// in the attachment (fabric.go): a Fabric embedded in each NIC's Network
// owns the engine and domain placement, the topology (crossbar, Clos or fat
// tree, filled with the NIC's link rate, crossing and wire latency), the
// fault injector, the message recorder and domain mode; a Port embedded in
// each endpoint owns the per-peer path cache, the fault and retry sinks and
// the reliable transfer with its retry loop. A NIC model supplies only its
// protocol behaviour and hardware: the Wiring it attaches with, a
// PathBuilder that lays its per-node stages around the topology's, its
// Reliability policy and per-resend work, its per-node instruments and
// utilizations, and the Endpoint cost model above.
package dev

import (
	"mpinet/internal/faults"
	"mpinet/internal/memreg"
	"mpinet/internal/msgtrace"
	"mpinet/internal/sim"
)

// Endpoint is one process's attachment to an interconnect. Endpoints on the
// same node share that node's NIC, bus and link hardware, so contention
// between co-located processes is modelled for free.
//
// Completions are typed continuations (sim.Callback): the MPI layer passes
// its message envelope as the handler and the protocol step as an
// argument, and the device fires the callback inline at the instant the
// operation completes (or schedules it as one event where the device adds
// a delay of its own). A Callback is a plain value, so handing one down
// allocates nothing; a device keeps whatever per-operation state it needs
// in recycled records of its own (see docs/MODEL.md §15).
type Endpoint interface {
	// Node returns the index of the node this endpoint lives on.
	Node() int

	// EagerThreshold is the largest payload sent by the eager protocol;
	// larger messages use rendezvous.
	EagerThreshold() int64

	// SendOverhead is the host CPU time consumed initiating a send of the
	// given size (descriptor build, doorbell, library bookkeeping).
	SendOverhead(size int64) sim.Time

	// RecvOverhead is the host CPU time consumed completing (matching,
	// unpacking bookkeeping) a receive of the given size.
	RecvOverhead(size int64) sim.Time

	// CopyTime is the host time to memcpy size bytes between a user buffer
	// and pre-registered staging (the eager path's copies).
	CopyTime(size int64) sim.Time

	// AcquireBuf makes a user buffer usable by the NIC (registration for
	// VAPI/GM, MMU-table synchronization for Elan) and returns the host
	// time it cost. Warm buffers cost zero.
	AcquireBuf(b memreg.Buf) sim.Time

	// AcquireOnEager reports whether AcquireBuf applies to eager-path
	// buffers too (true for Elan, whose NIC reads user memory directly even
	// for small messages; false for VAPI/GM, whose eager path copies
	// through pre-registered staging).
	AcquireOnEager() bool

	// NICProgress reports whether the NIC advances the rendezvous protocol
	// without host involvement (true for Elan/Tports).
	NICProgress() bool

	// IssueStall returns host stall time required before issuing the next
	// NIC operation (command-queue backpressure), possibly zero.
	IssueStall() sim.Time

	// Eager moves an eager packet (envelope + payload) to the destination
	// node's eager region; done fires there when it has landed.
	Eager(dst int, size int64, done sim.Callback)

	// Control moves a small protocol message (RTS/CTS/FIN); done fires when
	// it has landed.
	Control(dst int, done sim.Callback)

	// Bulk moves rendezvous payload zero-copy; done fires when the last
	// byte is in the destination user buffer.
	Bulk(dst int, size int64, done sim.Callback)

	// MemoryUsage is the bytes of library+device memory this process
	// consumes when connected to npeers other processes.
	MemoryUsage(npeers int) int64
}

// NICMatcher is implemented by endpoints whose NIC performs message
// matching itself (Quadrics Tports). The NIC walks its table of pending
// entries for every arrival, so delivery is delayed — and the NIC processor
// occupied — in proportion to how many receives are outstanding. This is
// the mechanism behind Quadrics' poor many-to-many (Alltoall) performance
// relative to its excellent ping-pong latency.
type NICMatcher interface {
	// MatchDelay fires done, as one event, once the NIC has matched an
	// arrival against pending posted entries.
	MatchDelay(pending int, done sim.Callback)
}

// Multicaster is implemented by endpoints whose switch can replicate one
// injected packet stream to every node — the hardware-supported collective
// extension the paper's Section 3.7 announces for InfiniBand. The MPI
// library's Bcast rides it when available.
type Multicaster interface {
	// Multicast pushes size bytes from this endpoint's node to every other
	// node; deliver fires once per destination node as the payload lands.
	Multicast(size int64, deliver func(node int))
}

// Utilization is one hardware resource's cumulative busy time, for
// bottleneck analysis after a run.
type Utilization struct {
	// Resource is the diagnostic name ("iba0/bus", "myri3/lanai", ...).
	Resource string
	// Busy is cumulative service time.
	Busy sim.Time
	// Jobs is the number of jobs served.
	Jobs int64
}

// Network is a fully wired interconnect instance for a cluster.
type Network interface {
	// Name is the short interconnect name used in reports ("IBA", "Myri",
	// "QSN").
	Name() string

	// Engine returns the simulation engine the hardware is scheduled on.
	Engine() *sim.Engine

	// Nodes returns the number of hosts attached.
	Nodes() int

	// NewEndpoint attaches one more process to the given node.
	NewEndpoint(node int) Endpoint

	// ShmemBelow reports this MPI implementation's intra-node policy:
	// messages strictly smaller than the returned size use the shared-
	// memory channel between co-located ranks; larger ones (and everything,
	// if it returns 0) loop back through the NIC. MVAPICH returns 16 KB,
	// MPICH-GM effectively infinity, Quadrics MPI 0.
	ShmemBelow() int64

	// MinLinkLatency is a lower bound on the simulated latency of any
	// message crossing between nodes — cable flight plus the cheapest port
	// logic, with every queueing and protocol delay excluded. The sharded
	// scheduler (sim.Sharded) uses it as the conservative lookahead for
	// cross-shard edges: no event executed in one node domain can affect
	// another sooner than this bound, so domains may dispatch a window of
	// that width in parallel. Returning a bound larger than the true
	// minimum would break causality (the scheduler trusts it); smaller is
	// merely slower; 0 states no bound.
	MinLinkLatency() sim.Time

	// Diameter is the element count of the fabric's longest route. The
	// MPI layer folds it into the scaled watchdog budget
	// (faults.ScaledTimeout): a deep Clos under faults needs more slack
	// per wait than the paper's single crossbar.
	Diameter() int

	// FaultPlan is the fault-injection plan the network is wired with
	// (see internal/faults), nil when faults are off. The MPI layer uses it
	// to auto-arm its per-wait watchdog: a run on a faulty network must end
	// in a typed error, never a silent hang.
	FaultPlan() *faults.Plan

	// AttachTracer hands the network the world's message recorder (see
	// internal/msgtrace) at wiring time. Device models then read the
	// current message's trace ID from the recorder synchronously at the
	// Eager/Control/Bulk entry (the cooperative scheduler makes the scoped
	// handoff race-free), carry it into their completion and retry state,
	// and record wire, hop, backoff and flight-recorder observations
	// against it. Composite networks (the rail bond) forward the attachment
	// to every member and add their own dispatch/failover spans.
	AttachTracer(rec *msgtrace.Recorder)

	// Utilizations returns per-resource occupancy accounting for every
	// modelled resource, in a stable order.
	Utilizations() []Utilization
}

// FaultReporter is implemented by endpoints that can fail permanently
// (retry exhaustion under a fault plan). OnFault registers the sink those
// failures are delivered to, replacing any previous sink; the MPI layer
// installs one per rank so errors arrive attributed to the rank that
// issued the operation. An endpoint with no fault plan never calls it.
type FaultReporter interface {
	OnFault(sink func(err error))
}

// RetryReporter is implemented by endpoints that can surface each
// individual retransmit of their reliability protocol as it happens —
// before the retry budget is exhausted. The rail bonding layer
// (internal/rail) installs an observer as a passive health signal: a run
// of consecutive retransmits without an intervening delivery marks the
// rail suspect long before a permanent FaultReporter error would. An
// endpoint with no fault plan never calls the observer.
type RetryReporter interface {
	OnRetry(observe func())
}

// ElementHealth is implemented by networks whose fabric can suffer element
// deaths (switch kills). DeadElement names the element currently down, for
// incident attribution: the rail layer asks it when a rail goes dead so the
// flight recorder can blame the switch rather than just the rail.
type ElementHealth interface {
	DeadElement(now sim.Time) (name string, code int64, ok bool)
}

// Domains is the node-domain placement of a sharded world: which shard owns
// each node's device state (NIC, bus, link, leaf fabric ports) and the
// engine of every shard. The cluster layer computes it leaf-aligned — all
// hosts of one leaf element share a shard, so leaf-tier fabric state is
// only ever touched by its owner domain. A single-engine (serial) run with
// domain semantics uses a one-entry engine list; EngineFor then always
// returns that engine and cross-domain scheduling degrades to plain
// scheduling at identical timestamps.
type Domains struct {
	// NodeShard maps node index to owning shard.
	NodeShard []int
	// Engines holds the engine of each shard, in shard order.
	Engines []*sim.Engine
}

// EngineFor returns the engine owning a node's device state.
func (d *Domains) EngineFor(node int) *sim.Engine {
	if len(d.Engines) == 1 {
		return d.Engines[0]
	}
	return d.Engines[d.NodeShard[node]]
}

// DomainNetwork is implemented by networks wired with a Domains placement.
// The placement is a capability until ActivateDomains flips it on: the MPI
// layer activates only for worlds whose configuration is domain-clean (no
// tracing, metrics, faults or hardware multicast), so every other world
// keeps the classic single-domain semantics byte-for-byte.
type DomainNetwork interface {
	// Domains returns the wired placement, nil when the network was built
	// without one.
	Domains() *Domains
	// ActivateDomains switches the network's device models to per-node
	// engines and domain-mode timing. It reports false (and stays
	// classic) when the network's configuration is incompatible.
	ActivateDomains() bool
}

// ConfigErrer is implemented by networks built from an invalid
// configuration: construction cannot return an error through the Platform
// builder chain, so the network carries it and mpi.NewWorld surfaces it as
// a validation failure before anything runs.
type ConfigErrer interface {
	ConfigErr() error
}
