// Package elan models the Quadrics side of the paper's testbed: Elan3
// QM-400 NICs on 64-bit/66 MHz PCI, an Elite-16 wormhole crossbar, 400 MB/s
// per-direction links, and an Elan3lib/Tports-like layer — the substrate of
// MPICH 1.2.4 over Quadrics.
//
// Mechanisms represented:
//
//   - The NIC executes the protocol: one-way latency is excellent (~4.6 us,
//     Figure 1) while *host* overhead is the highest of the three (~3.3 us,
//     Figure 3) because the Tports library does matching setup, MMU
//     bookkeeping and, below 288 bytes, PIO-copies the payload into Elan
//     SDRAM. Past that size the copy moves to DMA and the host share dips —
//     Figure 3's downward step after 256 B.
//   - The rendezvous handshake is progressed by the NIC thread processor, so
//     communication overlaps computation fully (Figure 6's steadily growing
//     Quadrics curve).
//   - Per-direction Elan DMA engines cap uni-directional bandwidth (~308
//     MB/s); bi-directionally both engines run but the shared PCI bus caps
//     the sum (~375 MB/s) — Figures 2 and 5.
//   - The Elan command queue holds 16 outstanding operations; deeper send
//     windows stall the host, the Figure 2 drop past window 16.
//   - No registration, but the NIC MMU must hold translations: first touch
//     of a new buffer costs host time at any message size (Figures 7, 8).
package elan

import (
	"fmt"

	"mpinet/internal/bus"
	"mpinet/internal/dev"
	"mpinet/internal/fabric"
	"mpinet/internal/faults"
	"mpinet/internal/memreg"
	"mpinet/internal/metrics"
	"mpinet/internal/shmem"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// Config selects the Quadrics platform variant.
type Config struct {
	Nodes       int
	SwitchPorts int // 16 on the paper's Elite-16
	// EagerThreshold overrides Tports' default 16 KB large-message switch
	// point (0 = default); an ablation knob.
	EagerThreshold int64
	// Faults, when non-nil, injects the plan's link/NIC/bus faults and
	// enables the Elan source-retry machinery below.
	Faults *faults.Plan
	// Clos, when non-nil, replaces the single crossbar with a parameterized
	// multi-stage Clos fabric (the redesigned topology API).
	Clos *fabric.ClosConfig
	// Domains, when non-nil, is the node-domain placement capability: the
	// engines and node->shard map of a sharded world, consumed when
	// ActivateDomains is called (see dev.DomainNetwork).
	Domains *dev.Domains
}

// DefaultConfig is the paper's 8-node testbed.
func DefaultConfig(nodes int) Config {
	return Config{Nodes: nodes, SwitchPorts: 16}
}

// Calibration constants (see DESIGN.md §5).
const (
	// linkRate is 400 MB/s (decimal) per direction.
	linkRateBps = 400e6
	// elanPerMsg is the NIC thread processor's work per packet; shared by
	// both directions.
	elanPerMsg = 150 * units.Nanosecond
	// Tports matching on the NIC: a fixed cost plus a walk over the pending
	// posted-receive table, serialized on the thread processor.
	matchBase     = 100 * units.Nanosecond
	matchPerEntry = 900 * units.Nanosecond
	// slowIssue is the host cost of issuing past a full command queue (the
	// library falls back to a polled slow path) and queueThrash the NIC
	// thread-processor time lost swapping queue state — together the
	// window >16 bandwidth sag of Figure 2.
	slowIssue   = 8 * units.Microsecond
	queueThrash = 10 * units.Microsecond
	// Per-direction Elan DMA engines; their chunk occupancy is the
	// uni-directional bandwidth ceiling (~308 MB/s).
	dmaRateBps  = 340e6
	dmaPerChunk = 250 * units.Nanosecond
	// pioMax is the size up to which the host PIO-copies payload into Elan
	// SDRAM (no sender-side bus DMA, higher host overhead).
	pioMax = 288
	// Host overheads: Tports library work. Below pioMax the send side also
	// PIO-copies; above, DMA takes over and the host share drops.
	sendOverheadPIO = 1800 * units.Nanosecond
	sendOverheadDMA = 1400 * units.Nanosecond
	recvOverhead    = 1500 * units.Nanosecond
	wireLatency     = 80 * units.Nanosecond
	// switchCrossing for the Elite crossbar (wormhole).
	switchCrossing = 150 * units.Nanosecond
	// eagerMax: Tports switches to its rendezvous-style large-message
	// protocol past this size.
	eagerMax = 16 * 1024
	copyBW   = 1600 // MB/s host memcpy
	// cmdQueueDepth is the Elan command queue; issuing past it stalls the
	// host until a slot frees.
	cmdQueueDepth = 16
	// MMU synchronization cost on first touch of a buffer (NIC-side
	// translations are host-maintained).
	mmuPerOp    = 10 * units.Microsecond
	mmuPerPage  = 2800 * units.Nanosecond
	mmuCapPages = 16384 // 64 MB of on-board SDRAM worth of translations
	// Memory: flat footprint regardless of peers (Figure 13).
	memFlat = 11 * units.MB
	// loopbackPenalty is the extra library cost of the NIC-loopback
	// intra-node path Quadrics MPI uses (Figure 9: intra-node latency is
	// *worse* than inter-node).
	loopbackPenalty = 2500 * units.Nanosecond
)

// elanRetry is Elan source retry: the wormhole fabric reports a failed
// route to the source NIC almost immediately, and the thread processor
// re-issues the packet from its own SDRAM many times at a short fixed
// interval before raising a network error to the library.
var elanRetry = faults.RetryPolicy{Limit: 31, Interval: 30 * units.Microsecond}

// Network is a wired Quadrics cluster. The embedded attachment owns the
// engine, topology, fault injector and recorder; Network adds the Elan
// NICs.
type Network struct {
	dev.Fabric
	cfg   Config
	nodes []*nodeHW
}

type nodeHW struct {
	bus      *bus.Bus
	elanProc *sim.Station
	dmaTx    *sim.Pipe
	dmaRx    *sim.Pipe
	link     *fabric.Link
}

// New wires a Quadrics network.
func New(eng *sim.Engine, cfg Config) *Network {
	if cfg.SwitchPorts == 0 {
		cfg.SwitchPorts = 16
	}
	n := &Network{cfg: cfg}
	n.Attach(eng, dev.Wiring{
		Proto:       "elan",
		Nodes:       cfg.Nodes,
		Crossbar:    "elite16",
		Ports:       cfg.SwitchPorts,
		Clos:        cfg.Clos,
		ClosName:    "elite-clos",
		Rate:        units.BytesPerSecond(linkRateBps),
		Crossing:    switchCrossing,
		Wire:        wireLatency,
		Faults:      cfg.Faults,
		Domains:     cfg.Domains,
		Reliability: dev.Reliability{Policy: elanRetry, Proto: "Elan source retry", Resend: n.resend},
		Paths:       n.buildPath,
	})
	for i := 0; i < cfg.Nodes; i++ {
		name := fmt.Sprintf("qsn%d", i)
		n.nodes = append(n.nodes, &nodeHW{
			bus:      bus.New(name+"/bus", bus.PCI64x66),
			elanProc: sim.NewStation(name + "/elanproc"),
			dmaTx:    sim.NewPipe(name+"/dma-tx", units.BytesPerSecond(dmaRateBps), dmaPerChunk, 0),
			dmaRx:    sim.NewPipe(name+"/dma-rx", units.BytesPerSecond(dmaRateBps), dmaPerChunk, 0),
			link: fabric.NewLink(name+"/link", fabric.LinkConfig{
				Rate:     units.BytesPerSecond(linkRateBps),
				PerChunk: 40 * units.Nanosecond,
				MinFrame: 32,
			}),
		})
	}
	return n
}

// Name implements dev.Network.
func (n *Network) Name() string { return "QSN" }

// ShmemBelow implements dev.Network: the Quadrics MPI of the paper loops
// intra-node traffic through the NIC at every size.
func (n *Network) ShmemBelow() int64 { return 0 }

// ShmemConfig returns intra-node channel parameters (unused in practice
// since ShmemBelow is 0, but required for interface completeness).
func (n *Network) ShmemConfig() shmem.Config { return shmem.DefaultConfig() }

// InstrumentMetrics implements metrics.Instrumentable: per-node bus, NIC
// thread processor, DMA engine and link counters plus device-level spans,
// then the attachment's fabric and fault-injector instruments. Endpoints
// created afterwards bind protocol counters, MMU-cache probes, and the
// Elan-specific command-queue stall and NIC-match counters.
func (n *Network) InstrumentMetrics(m *metrics.Registry) {
	if m == nil {
		return
	}
	for i, hw := range n.nodes {
		prefix := metrics.NodePrefix(i) + "nic"
		hw.bus.Instrument(m, i)
		m.ProbeCount(prefix+"/elanproc_jobs", hw.elanProc.Jobs)
		m.ProbeTime(prefix+"/elanproc_busy_time", hw.elanProc.BusyTime)
		m.ProbeTime(prefix+"/elanproc_wait_time", hw.elanProc.WaitTime)
		hw.elanProc.RecordSpans(m, i, "threadproc", "nic")
		hw.dmaTx.Instrument(m, prefix+"/tx")
		hw.dmaRx.Instrument(m, prefix+"/rx")
		hw.dmaTx.RecordSpans(m, i, "tx", "nic")
		hw.dmaRx.RecordSpans(m, i, "rx", "nic")
		hw.link.Instrument(m, i)
	}
	n.InstrumentFabric(m)
}

// Utilizations implements dev.Network.
func (n *Network) Utilizations() []dev.Utilization {
	var out []dev.Utilization
	for _, hw := range n.nodes {
		out = append(out,
			dev.Utilization{Resource: hw.bus.Name(), Busy: hw.bus.BusyTime(), Jobs: hw.bus.Jobs()},
			dev.Utilization{Resource: hw.elanProc.Name(), Busy: hw.elanProc.BusyTime(), Jobs: hw.elanProc.Jobs()},
			dev.Utilization{Resource: hw.dmaTx.Name(), Busy: hw.dmaTx.BusyTime(), Jobs: hw.dmaTx.Jobs()},
			dev.Utilization{Resource: hw.dmaRx.Name(), Busy: hw.dmaRx.BusyTime(), Jobs: hw.dmaRx.Jobs()},
			dev.Utilization{Resource: hw.link.Up().Name(), Busy: hw.link.Up().BusyTime(), Jobs: hw.link.Up().Jobs()},
			dev.Utilization{Resource: hw.link.Down().Name(), Busy: hw.link.Down().BusyTime(), Jobs: hw.link.Down().Jobs()},
		)
	}
	return out
}

// NewEndpoint implements dev.Network.
func (n *Network) NewEndpoint(node int) dev.Endpoint {
	if node < 0 || node >= len(n.nodes) {
		panic("elan: bad node index")
	}
	m := n.Metrics()
	ep := &endpoint{
		net: n,
		mmu: memreg.NewPinCache(
			memreg.CostModel{PerOp: mmuPerOp, PerPage: mmuPerPage},
			memreg.CostModel{}, // MMU entries are overwritten, not deregistered
			mmuCapPages),
	}
	ep.nic = dev.NewNICCounters(m, node)
	ep.cmdqStalls = m.Counter(metrics.NodePrefix(node) + "nic/cmdq_stalls")
	ep.matches = m.Counter(metrics.NodePrefix(node) + "nic/matches")
	ep.Port = n.NewPort(node)
	dev.InstrumentPinCache(m, node, ep.mmu)
	return ep
}

// endpoint is one process's Tports attachment; the embedded Port carries
// its node, path cache, fault sinks and the source-retrying transfer.
type endpoint struct {
	dev.Port
	net *Network
	mmu *memreg.PinCache

	// outstanding NIC commands (issued, not yet delivered) for the
	// command-queue model.
	outstanding int

	// metric handles (nil-safe no-ops when instrumentation is off)
	nic        dev.NICCounters
	cmdqStalls *metrics.Counter
	matches    *metrics.Counter
}

// EagerThreshold implements dev.Endpoint, honouring the config override.
func (ep *endpoint) EagerThreshold() int64 {
	if ep.net.cfg.EagerThreshold > 0 {
		return ep.net.cfg.EagerThreshold
	}
	return eagerMax
}
func (ep *endpoint) NICProgress() bool    { return true }
func (ep *endpoint) AcquireOnEager() bool { return true }

func (ep *endpoint) SendOverhead(size int64) sim.Time {
	if size <= pioMax {
		// PIO copy is part of the host's send work.
		return sendOverheadPIO + units.MBps(copyBW).TimeFor(size)
	}
	return sendOverheadDMA
}

func (ep *endpoint) RecvOverhead(size int64) sim.Time { return recvOverhead }

func (ep *endpoint) CopyTime(size int64) sim.Time {
	return units.MBps(copyBW).TimeFor(size)
}

// AcquireBuf synchronizes the NIC MMU table for the buffer's pages. The
// update stalls the NIC's translation machinery — the DMA engines and the
// thread processor cannot translate through a table being rewritten — which
// is why low buffer-reuse rates hurt Quadrics bandwidth, not just latency
// (Figure 8).
func (ep *endpoint) AcquireBuf(b memreg.Buf) sim.Time {
	cost := ep.mmu.Acquire(b)
	if cost > 0 {
		hw := ep.net.nodes[ep.Node()]
		now := ep.net.EngineFor(ep.Node()).Now()
		hw.elanProc.Use(now, cost)
		hw.dmaTx.Use(now, cost)
		hw.dmaRx.Use(now, cost)
	}
	return cost
}

func (ep *endpoint) MemoryUsage(npeers int) int64 { return memFlat }

// MMU exposes the translation cache for tests and diagnostics.
func (ep *endpoint) MMU() *memreg.PinCache { return ep.mmu }

// IssueStall implements the 16-deep command queue: once it is full, every
// further issue takes the library's polled slow path on the host and makes
// the NIC thread processor swap queue state, stealing time from delivery.
func (ep *endpoint) IssueStall() sim.Time {
	if ep.outstanding < cmdQueueDepth {
		return 0
	}
	ep.cmdqStalls.Inc()
	hw := ep.net.nodes[ep.Node()]
	hw.elanProc.Use(ep.net.EngineFor(ep.Node()).Now(), queueThrash)
	return slowIssue
}

// MatchDelay implements dev.NICMatcher: the thread processor walks the
// pending Tports table before delivering. The walk is capped — in-order
// streams match near the head; the full cost shows in many-to-many patterns
// where unrelated entries pile up.
func (ep *endpoint) MatchDelay(pending int, done sim.Callback) {
	const maxWalk = 8
	if pending > maxWalk {
		pending = maxWalk
	}
	ep.matches.Inc()
	eng := ep.net.EngineFor(ep.Node())
	hw := ep.net.nodes[ep.Node()]
	_, end := hw.elanProc.Use(eng.Now(), matchBase+sim.Time(pending)*matchPerEntry)
	eng.CallAt(end, done.H, done.A, done.B)
}

// elanStage bills the shared NIC thread processor per chunk.
type elanStage struct{ st *sim.Station }

func (l elanStage) Send(now sim.Time, n int64) (start, end sim.Time) {
	return l.st.Use(now, elanPerMsg)
}

// pathVariant selects the PIO (0) or DMA (1) path for a payload size.
func pathVariant(size int64) int {
	if size > pioMax {
		return 1
	}
	return 0
}

// resend is the Reliability hook: each source retry costs the thread
// processor one packet's work.
func (n *Network) resend(node int) {
	n.nodes[node].elanProc.Use(n.EngineFor(node).Now(), elanPerMsg)
}

// buildPath assembles the staged path from node to dst (dev.PathBuilder)
// in the PIO (0) or DMA (1) variant. Small sends skip the sender-side bus
// DMA (the host PIO-copied into Elan SDRAM already, billed in SendOverhead).
// Same-node traffic loops through the NIC, crossing the node's PCI bus
// twice. The NIC thread processor, send DMA and link up run on the source
// node, plus the sender bus for DMA-sized payloads.
func (n *Network) buildPath(node, dst, variant int) ([]fabric.PathStage, int) {
	src := n.nodes[node]
	var stages []fabric.PathStage
	srcStages := 3
	if variant == 1 {
		stages = append(stages, fabric.PathStage{Stage: src.bus})
		srcStages++
	}
	if dst == node {
		return append(stages,
			fabric.PathStage{Stage: elanStage{src.elanProc}, Latency: loopbackPenalty},
			fabric.PathStage{Stage: src.dmaTx},
			fabric.PathStage{Stage: src.dmaRx},
			fabric.PathStage{Stage: src.bus},
		), srcStages
	}
	d := n.nodes[dst]
	between, downLat := n.Topology().Between(node, dst)
	stages = append(stages,
		fabric.PathStage{Stage: elanStage{src.elanProc}},
		fabric.PathStage{Stage: src.dmaTx},
		fabric.PathStage{Stage: src.link.Up(), Latency: wireLatency + n.Skew(node)},
	)
	stages = append(stages, between...)
	return append(stages,
		fabric.PathStage{Stage: d.link.Down(), Latency: downLat + wireLatency},
		fabric.PathStage{Stage: elanStage{d.elanProc}},
		fabric.PathStage{Stage: d.dmaRx},
		fabric.PathStage{Stage: d.bus},
	), srcStages
}

// op is one in-flight Tports send: the endpoint whose command-queue slot
// it holds, its destination and the MPI layer's continuation. Records are
// recycled through a per-engine free list — taken on the source's engine at
// issue, released on the destination's when the payload lands and returned
// to the source's list — so a healthy send allocates nothing.
type op struct {
	ep   *endpoint
	dst  int
	done sim.Callback
}

// ops recycles Tports send records.
var ops = sim.NewFreeList[op]()

// HandleEvent implements sim.Handler: the transfer landed intact.
func (o *op) HandleEvent(int64, int64) { o.delivered() }

// delivered releases the send's command-queue slot, frees the record and
// fires the continuation, on the destination's engine. The slot is
// source-NIC state: in domain mode its release rides a cross-domain hop
// back, one wire flight after delivery, carrying the destination's skew so
// commit order stays a pure function of simulated time. (CallOn degrades
// to a same-engine Call with the identical delay when both nodes share a
// shard, so the release time is the same at every shard count.)
func (o *op) delivered() {
	ep, n := o.ep, o.ep.net
	node := ep.Node()
	dstEng := n.EngineFor(o.dst)
	if n.Scaled() && o.dst != node {
		dstEng.CallOn(n.EngineFor(node), wireLatency+n.Skew(o.dst), ep, 0, 0)
	} else {
		ep.outstanding--
	}
	done := o.done
	ops.Put(dstEng, n.EngineFor(node), o)
	done.Fire()
}

// HandleEvent implements sim.Handler for the command-queue slot release:
// the domain-mode hop delivered schedules back on this endpoint's engine,
// and the release of a permanently failed transfer.
func (ep *endpoint) HandleEvent(int64, int64) { ep.outstanding-- }

// transfer moves size bytes to dst and fires done when they have landed.
// Under a fault plan the attachment's retry loop runs Elan source retry:
// the wormhole fabric bounces a failed route back to the source, whose
// thread processor re-issues the packet from NIC SDRAM after a short fixed
// interval — many cheap retries rather than the host-visible timeouts of
// the other two interconnects. The command-queue slot stays occupied for
// the whole retry chain and is released if it fails permanently.
func (ep *endpoint) transfer(dst int, size int64, done sim.Callback) {
	o := ops.Get(ep.net.EngineFor(ep.Node()))
	*o = op{ep: ep, dst: dst, done: done}
	ep.outstanding++
	ep.Transfer(dst, pathVariant(size), size, 0, sim.Callback{H: o}, sim.Callback{H: ep})
}

// Eager implements dev.Endpoint (Tports queued send).
func (ep *endpoint) Eager(dst int, size int64, done sim.Callback) {
	ep.nic.Eager(size)
	ep.transfer(dst, size+32, done)
}

// Control implements dev.Endpoint.
func (ep *endpoint) Control(dst int, done sim.Callback) {
	ep.nic.Control()
	ep.transfer(dst, 64, done)
}

// Bulk implements dev.Endpoint (Elan remote DMA).
func (ep *endpoint) Bulk(dst int, size int64, done sim.Callback) {
	ep.nic.Bulk(size)
	ep.transfer(dst, size, done)
}

var _ dev.Network = (*Network)(nil)
var _ dev.Endpoint = (*endpoint)(nil)
