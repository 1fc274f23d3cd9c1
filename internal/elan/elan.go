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
	"mpinet/internal/msgtrace"
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

// Network is a wired Quadrics cluster.
type Network struct {
	eng   *sim.Engine
	cfg   Config
	topo  fabric.Topology
	nodes []*nodeHW
	met   *metrics.Registry
	inj   *faults.Injector
	rec   *msgtrace.Recorder

	// dynamic marks adaptive routing: paths are chosen per message and
	// must not be cached.
	dynamic bool
	// scale flips on domain mode: per-node engines, split transfers, and
	// the per-source picosecond skew that keeps sharded commit order equal
	// to serial dispatch order.
	scale bool
	// cfgErr carries a topology-validation failure to mpi.NewWorld
	// (dev.ConfigErrer); construction itself cannot return an error.
	cfgErr error
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
	if cfg.Nodes < 1 {
		panic("elan: need at least one node")
	}
	if cfg.SwitchPorts == 0 {
		cfg.SwitchPorts = 16
	}
	n := &Network{eng: eng, cfg: cfg, inj: faults.NewInjector(cfg.Faults)}
	if cfg.Clos != nil {
		cc := *cfg.Clos
		if cc.LinkRate == 0 {
			cc.LinkRate = units.BytesPerSecond(linkRateBps)
		}
		if cc.Crossing == 0 {
			cc.Crossing = switchCrossing
		}
		if cc.WireLatency == 0 {
			cc.WireLatency = wireLatency
		}
		topo, err := fabric.NewClos("elite-clos", cc, cfg.Nodes)
		if err != nil {
			n.cfgErr = fmt.Errorf("elan: %w", err)
		} else {
			n.topo = topo
			n.dynamic = cc.Routing == fabric.Adaptive
			if cfg.Faults.HasElements() {
				if err := topo.SetElementFaults(cfg.Faults, eng); err != nil {
					n.cfgErr = fmt.Errorf("elan: %w", err)
				}
				// Element deaths invalidate cached paths: every message must
				// re-resolve its route so detection-time re-hashes take effect.
				n.dynamic = true
			}
		}
	} else {
		if cfg.Nodes > cfg.SwitchPorts {
			panic(fmt.Sprintf("elan: %d nodes exceed %d switch ports", cfg.Nodes, cfg.SwitchPorts))
		}
		n.topo = fabric.NewCrossbarTopology(fabric.NewSwitch("elite16", fabric.SwitchConfig{
			Ports:    cfg.SwitchPorts,
			Crossing: switchCrossing,
			Rate:     units.BytesPerSecond(linkRateBps),
		}))
	}
	if cfg.Faults.HasElements() && cfg.Clos == nil {
		n.cfgErr = fmt.Errorf("elan: fault plan schedules fabric-element deaths but the topology is not a Clos")
	}
	n.announceElementDeaths()
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

// Topology exposes the wired fabric topology — a debug surface for tests
// that flip fabric-level verification knobs (e.g. fabric.(*Clos).SetRouteCache)
// on a built network.
func (n *Network) Topology() fabric.Topology { return n.topo }

// Engine implements dev.Network.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Nodes implements dev.Network.
func (n *Network) Nodes() int { return n.cfg.Nodes }

// MinLinkLatency implements dev.LookaheadReporter: the cross-node latency
// floor is one wire hop.
func (n *Network) MinLinkLatency() sim.Time { return wireLatency }

// ShmemBelow implements dev.Network: the Quadrics MPI of the paper loops
// intra-node traffic through the NIC at every size.
func (n *Network) ShmemBelow() int64 { return 0 }

// FaultPlan implements dev.FaultPlanner (nil when faults are off).
func (n *Network) FaultPlan() *faults.Plan { return n.inj.Plan() }

// Diameter implements dev.DiameterReporter.
func (n *Network) Diameter() int {
	if n.topo == nil {
		return 1
	}
	return fabric.DiameterOf(n.topo)
}

// DeadElement implements dev.ElementHealth: forwarded to the fabric, which
// knows which of the plan's element kills is in effect.
func (n *Network) DeadElement(now sim.Time) (string, int64, bool) {
	if eh, ok := n.topo.(interface {
		DeadElement(sim.Time) (string, int64, bool)
	}); ok {
		return eh.DeadElement(now)
	}
	return "", 0, false
}

// announceElementDeaths schedules one FlightElementDown incident per
// switch kill at its death instant, so a postmortem names the dead element
// even when no packet happened to ride it. Node crashes are announced by
// the MPI layer, which owns rank death.
func (n *Network) announceElementDeaths() {
	p := n.inj.Plan()
	if !p.HasElements() || n.cfgErr != nil || n.cfg.Clos == nil {
		return
	}
	uplinks := n.cfg.Clos.Uplinks()
	for _, k := range p.SwitchKills {
		code := msgtrace.ElemCode(msgtrace.ElemLeaf, k.Index)
		if k.Level >= 1 {
			code = msgtrace.ElemCode(msgtrace.ElemPlane, k.Index%uplinks)
		}
		at, repair := k.At, int64(k.RepairAt)
		c := code
		n.eng.At(at, func() {
			n.rec.Flight(msgtrace.FlightElementDown, at, -1, 0, msgtrace.StageHop, c, repair)
		})
	}
}

// AttachTracer implements dev.TraceAttacher.
func (n *Network) AttachTracer(rec *msgtrace.Recorder) { n.rec = rec }

// ConfigErr implements dev.ConfigErrer.
func (n *Network) ConfigErr() error { return n.cfgErr }

// Domains implements dev.DomainNetwork.
func (n *Network) Domains() *dev.Domains { return n.cfg.Domains }

// ActivateDomains implements dev.DomainNetwork: flips the network into
// domain (scale) mode. The Elan source-retry machinery reads fault verdicts
// at delivery time on the shared engine, so a fault plan refuses activation.
func (n *Network) ActivateDomains() bool {
	if n.cfg.Domains == nil || n.inj != nil {
		return false
	}
	n.scale = true
	return true
}

// engineFor returns the engine owning a node's device state: the shared
// engine in classic mode, the node's domain engine in scale mode.
func (n *Network) engineFor(node int) *sim.Engine {
	if !n.scale {
		return n.eng
	}
	return n.cfg.Domains.EngineFor(node)
}

// skew is the deterministic per-source-node latency perturbation of domain
// mode: one picosecond times (node+1), added to every cross-node hop so
// cross-shard commit order agrees with serial dispatch order at same-instant
// collisions (see the verbs twin for the full rationale).
func (n *Network) skew(node int) sim.Time {
	if !n.scale {
		return 0
	}
	return sim.Time(node + 1)
}

// ShmemConfig returns intra-node channel parameters (unused in practice
// since ShmemBelow is 0, but required for interface completeness).
func (n *Network) ShmemConfig() shmem.Config { return shmem.DefaultConfig() }

// InstrumentMetrics implements metrics.Instrumentable: per-node bus, NIC
// thread processor, DMA engine and link counters plus device-level spans
// and switch port counters. Endpoints created afterwards bind protocol
// counters, MMU-cache probes, and the Elan-specific command-queue stall
// and NIC-match counters.
func (n *Network) InstrumentMetrics(m *metrics.Registry) {
	if m == nil {
		return
	}
	n.met = m
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
	// As in the other devices, the Elite crossbar's output contention rides
	// the destination down-link, so its port pipes carry no traffic and are
	// left unregistered; multi-stage fabrics register their leaf-tier links.
	if ti, ok := n.topo.(interface{ Instrument(*metrics.Registry) }); ok {
		ti.Instrument(m)
	}
	n.inj.Instrument(m)
}

// Utilizations implements dev.UtilizationReporter.
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
	ep := &endpoint{
		net:  n,
		node: node,
		mmu: memreg.NewPinCache(
			memreg.CostModel{PerOp: mmuPerOp, PerPage: mmuPerPage},
			memreg.CostModel{}, // MMU entries are overwritten, not deregistered
			mmuCapPages),
	}
	ep.nic = dev.NewNICCounters(n.met, node)
	ep.cmdqStalls = n.met.Counter(metrics.NodePrefix(node) + "nic/cmdq_stalls")
	ep.matches = n.met.Counter(metrics.NodePrefix(node) + "nic/matches")
	ep.retries = n.met.Counter(metrics.NodePrefix(node) + "nic/retries")
	ep.retryErrors = n.met.Counter(metrics.NodePrefix(node) + "nic/retry_exhausted")
	dev.InstrumentPinCache(n.met, node, ep.mmu)
	return ep
}

type endpoint struct {
	net  *Network
	node int
	mmu  *memreg.PinCache

	// outstanding NIC commands (issued, not yet delivered) for the
	// command-queue model.
	outstanding int

	// sink receives permanent transfer failures (dev.FaultReporter).
	sink func(error)
	// onRetry observes each individual source retry (dev.RetryReporter).
	onRetry func()

	// metric handles (nil-safe no-ops when instrumentation is off)
	nic         dev.NICCounters
	cmdqStalls  *metrics.Counter
	matches     *metrics.Counter
	retries     *metrics.Counter
	retryErrors *metrics.Counter

	// peers holds the resolved per-destination send state. The stage list
	// has two variants because PIO-sized sends skip the sender bus DMA; the
	// block carries both plus their source-side stage counts. One dense
	// slice of lazily materialized blocks — the hot path is a single index,
	// no map lookups, and an endpoint in a 4k-node world only pays for the
	// peers it actually speaks to. Adaptive routing bypasses the cache:
	// the up-link choice is per message.
	peers []*peerState
}

// peerState is one destination's resolved send state, per PIO/DMA variant.
type peerState struct {
	pathPIO []fabric.PathStage // size <= pioMax
	pathDMA []fabric.PathStage // size > pioMax
	srcPIO  int
	srcDMA  int
}

// peer returns dst's state block, materializing it (and the index slice)
// on first contact.
func (ep *endpoint) peer(dst int) *peerState {
	if ep.peers == nil {
		ep.peers = make([]*peerState, len(ep.net.nodes))
	}
	p := ep.peers[dst]
	if p == nil {
		p = &peerState{}
		ep.peers[dst] = p
	}
	return p
}

// OnFault implements dev.FaultReporter.
func (ep *endpoint) OnFault(sink func(error)) { ep.sink = sink }

// OnRetry implements dev.RetryReporter.
func (ep *endpoint) OnRetry(observe func()) { ep.onRetry = observe }

// retried counts one source retry and feeds the passive health observer.
func (ep *endpoint) retried() {
	ep.retries.Inc()
	if ep.onRetry != nil {
		ep.onRetry()
	}
}

// fail reports a permanent transfer failure to the registered sink, or
// raises it directly when the device is used without the MPI layer.
func (ep *endpoint) fail(err error) {
	ep.retryErrors.Inc()
	if ep.sink != nil {
		ep.sink(err)
		return
	}
	panic(err)
}

func (ep *endpoint) Node() int { return ep.node }

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
		hw := ep.net.nodes[ep.node]
		now := ep.net.engineFor(ep.node).Now()
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
	hw := ep.net.nodes[ep.node]
	hw.elanProc.Use(ep.net.engineFor(ep.node).Now(), queueThrash)
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
	eng := ep.net.engineFor(ep.node)
	hw := ep.net.nodes[ep.node]
	_, end := hw.elanProc.Use(eng.Now(), matchBase+sim.Time(pending)*matchPerEntry)
	eng.CallAt(end, done.H, done.A, done.B)
}

// elanStage bills the shared NIC thread processor per chunk.
type elanStage struct{ st *sim.Station }

func (l elanStage) Send(now sim.Time, n int64) (start, end sim.Time) {
	return l.st.Use(now, elanPerMsg)
}

// path returns the staged path to dst, assembled once per (destination,
// PIO-or-DMA) variant and cached in the peer block — except under adaptive
// routing, where the fabric picks the up-link per message and the path must
// be rebuilt.
func (ep *endpoint) path(dst int, size int64) []fabric.PathStage {
	p, _ := ep.resolved(dst, size)
	return p
}

// resolved returns the staged path to dst for the size's PIO/DMA variant
// and its source-side stage count — the NIC thread processor, send DMA and
// link up (plus the sender bus for DMA-sized payloads, and whatever the
// topology keeps on the source leaf; TransferCut runs those on the source's
// domain engine). Both are cached in the peer block; adaptive routing
// rebuilds the path per message.
func (ep *endpoint) resolved(dst int, size int64) ([]fabric.PathStage, int) {
	srcN := func() int {
		n := 3
		if size > pioMax {
			n++
		}
		return n + fabric.SrcStagesOf(ep.net.topo, ep.node, dst)
	}
	if ep.net.dynamic && dst != ep.node {
		return ep.buildPath(dst, size), srcN()
	}
	p := ep.peer(dst)
	if size > pioMax {
		if p.pathDMA == nil {
			p.pathDMA = ep.buildPath(dst, size)
			p.srcDMA = srcN()
		}
		return p.pathDMA, p.srcDMA
	}
	if p.pathPIO == nil {
		p.pathPIO = ep.buildPath(dst, size)
		p.srcPIO = srcN()
	}
	return p.pathPIO, p.srcPIO
}

// buildPath assembles the staged path to dst. Small sends skip the sender-
// side bus DMA (the host PIO-copied into Elan SDRAM already, billed in
// SendOverhead). Same-node traffic loops through the NIC, crossing the
// node's PCI bus twice.
func (ep *endpoint) buildPath(dst int, size int64) []fabric.PathStage {
	src := ep.net.nodes[ep.node]
	var stages []fabric.PathStage
	if size > pioMax {
		stages = append(stages, fabric.PathStage{Stage: src.bus})
	}
	if dst == ep.node {
		return append(stages,
			fabric.PathStage{Stage: elanStage{src.elanProc}, Latency: loopbackPenalty},
			fabric.PathStage{Stage: src.dmaTx},
			fabric.PathStage{Stage: src.dmaRx},
			fabric.PathStage{Stage: src.bus},
		)
	}
	d := ep.net.nodes[dst]
	between, downLat := ep.net.topo.Between(ep.node, dst)
	stages = append(stages,
		fabric.PathStage{Stage: elanStage{src.elanProc}},
		fabric.PathStage{Stage: src.dmaTx},
		fabric.PathStage{Stage: src.link.Up(), Latency: wireLatency + ep.net.skew(ep.node)},
	)
	stages = append(stages, between...)
	return append(stages,
		fabric.PathStage{Stage: d.link.Down(), Latency: downLat + wireLatency},
		fabric.PathStage{Stage: elanStage{d.elanProc}},
		fabric.PathStage{Stage: d.dmaRx},
		fabric.PathStage{Stage: d.bus},
	)
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
	dstEng := n.engineFor(o.dst)
	if n.scale && o.dst != ep.node {
		dstEng.CallOn(n.engineFor(ep.node), wireLatency+n.skew(o.dst), ep, 0, 0)
	} else {
		ep.outstanding--
	}
	done := o.done
	ops.Put(dstEng, n.engineFor(ep.node), o)
	done.Fire()
}

// HandleEvent implements sim.Handler for the domain-mode command-queue slot
// release that delivered schedules back on this endpoint's engine.
func (ep *endpoint) HandleEvent(int64, int64) { ep.outstanding-- }

// transfer moves size bytes to dst and fires done when they have landed.
// In domain mode it is fault-free by construction (activation refuses fault
// plans) and untraced; the staged path is split at the wire so each node's
// hardware state stays on its own engine.
func (ep *endpoint) transfer(dst int, size int64, done sim.Callback) {
	n := ep.net
	eng := n.engineFor(ep.node)
	o := ops.Get(eng)
	*o = op{ep: ep, dst: dst, done: done}
	if n.scale {
		ep.outstanding++
		path, srcN := ep.resolved(dst, size)
		fabric.TransferCut(eng, n.engineFor(dst), path, srcN,
			size, fabric.ChunkFor(size), eng.Now(), sim.Callback{H: o})
		return
	}
	rec := n.rec
	tid, rail := rec.Cur(), rec.CurRail()
	ep.outstanding++
	inj := n.inj
	if inj == nil || dst == ep.node {
		fabric.TransferTraced(ep.net.eng, ep.path(dst, size), size, fabric.ChunkFor(size), eng.Now(), ep.net.rec, tid, ep.node, rail, 0, sim.Callback{H: o})
		return
	}
	start := eng.Now() + inj.NICStall(ep.node, eng.Now()) + inj.BusDelay(ep.node, eng.Now())
	// Elan source retry: the wormhole fabric bounces a failed route back
	// to the source, whose thread processor re-issues the packet from NIC
	// SDRAM after a short fixed interval — many cheap retries rather than
	// the host-visible timeouts of the other two interconnects. The
	// command-queue slot stays occupied for the whole retry chain. Each
	// re-issue re-resolves its route (adaptive routing's leaf-local state
	// forgets dead planes at detection), and a detected dead end — crashed
	// peer, partitioned fabric — fails typed without burning retries.
	attempt := 1
	var try func(at sim.Time)
	try = func(at sim.Time) {
		if inj.NodeDeadDetected(dst, at) || inj.NodeDeadDetected(ep.node, at) {
			node := dst
			if inj.NodeDeadDetected(ep.node, at) {
				node = ep.node
			}
			ep.outstanding--
			ep.fail(&faults.NodeDownError{Node: node, At: at})
			return
		}
		path := ep.path(dst, size)
		fate := fabric.LastRouteOf(n.topo)
		if fate.State == fabric.RoutePartitioned {
			ep.outstanding--
			ep.fail(&faults.PartitionError{Src: ep.node, Dst: dst, Element: fate.Element})
			return
		}
		fabric.TransferTraced(ep.net.eng, path, size, fabric.ChunkFor(size), at, ep.net.rec, tid, ep.node, rail, uint8(attempt-1), sim.Callback{H: sim.Func(func() {
			end := eng.Now()
			v := faults.Drop // black-holed: structural loss, no PRNG draw
			if fate.State != fabric.RouteBlackhole {
				v = inj.VerdictExtra(ep.node, dst, end, fate.ExtraDrop)
			}
			if v == faults.Deliver {
				o.delivered()
				return
			}
			if attempt > elanRetry.Limit {
				ep.outstanding--
				ep.fail(&faults.LinkError{Src: ep.node, Dst: dst,
					Attempts: attempt, Bytes: size, Proto: "Elan source retry"})
				return
			}
			delay := elanRetry.Delay(attempt)
			attempt++
			ep.retried()
			rec.Flight(msgtrace.FlightRetransmit, end, ep.node, tid, msgtrace.StageWire, int64(attempt-1), int64(dst))
			rec.Span(tid, msgtrace.StageBackoff, ep.node, rail, uint8(attempt-1), -1, end, end+delay, size)
			eng.At(end+delay, func() {
				hw := n.nodes[ep.node]
				hw.elanProc.Use(eng.Now(), elanPerMsg)
				try(eng.Now())
			})
		})})
	}
	try(start)
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
