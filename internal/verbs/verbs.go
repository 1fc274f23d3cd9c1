// Package verbs models the InfiniBand side of the paper's testbed: Mellanox
// InfiniHost MT23108 HCAs on PCI-X (or PCI, for the Figure 26–28
// experiments), an InfiniScale-class crossbar switch, and a VAPI-like verbs
// layer with Reliable Connection semantics, mandatory memory registration
// and RDMA — the substrate MVAPICH 0.9.1 runs on.
//
// Mechanisms represented:
//
//   - Separate HCA transmit and receive processing engines: bi-directional
//     traffic barely degrades latency (Figure 4).
//   - The host bus is shared by both DMA directions: uni-directional
//     bandwidth tops out at ~841 MB/s, bi-directional at the bus's ~900
//     (Figures 2 and 5); swapping PCI-X for PCI lowers the lid to ~378
//     (Figure 27).
//   - Registration with a pin-down cache: the rendezvous (zero-copy) path
//     pays per-page registration on cache misses, so buffer reuse matters
//     above the 2 KB eager threshold (Figures 7, 8).
//   - Per-Reliable-Connection resources: memory grows with the number of
//     peers (Figure 13).
package verbs

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

// Config selects the InfiniBand platform variant.
type Config struct {
	Nodes       int
	Bus         bus.Kind // PCIX64x133 (default testbed) or PCI64x66
	SwitchPorts int      // 8 (InfiniScale) or 24 (Topspin 360)

	// EagerThreshold overrides MVAPICH's default 2 KB eager/rendezvous
	// switch point (0 = default). Exposed for ablation studies.
	EagerThreshold int64

	// OnDemandConnections enables the connection-management extension the
	// paper points to for its memory-usage finding (Section 3.8, citing Wu
	// et al.): Reliable Connections are established on first use instead of
	// at startup, so the Figure 13 memory growth tracks peers actually
	// communicated with, at the price of a setup stall on first contact.
	OnDemandConnections bool

	// HWMulticast enables the hardware-supported collective extension the
	// paper's Section 3.7 announces (Kini et al.): broadcasts ride a
	// switch-replicated multicast instead of a point-to-point tree.
	HWMulticast bool

	// FatTree, when non-nil, replaces the single crossbar with a two-level
	// folded-Clos fabric built from crossbar elements — the scaling
	// extension for clusters larger than one switch.
	FatTree *fabric.FatTreeConfig

	// Clos, when non-nil, replaces the single crossbar with a parameterized
	// multi-stage Clos fabric (the redesigned topology API); it wins over
	// FatTree. LinkRate/Crossing/WireLatency zero-values are filled with the
	// InfiniBand calibration.
	Clos *fabric.ClosConfig

	// Domains, when non-nil, is the node-domain placement capability: the
	// network can run each node's device state on its own engine once
	// ActivateDomains is called (see dev.DomainNetwork).
	Domains *dev.Domains

	// Faults, when non-nil, injects the plan's link/NIC/bus faults and
	// enables the RC retransmit machinery below.
	Faults *faults.Plan
}

// DefaultConfig is the paper's 8-node OSU testbed.
func DefaultConfig(nodes int) Config {
	return Config{Nodes: nodes, Bus: bus.PCIX64x133, SwitchPorts: 8}
}

// Calibration constants. Physical rates come from the hardware description
// in the paper; software costs are calibrated so the anchor measurements
// quoted in the paper's text are matched (see DESIGN.md §5).
const (
	// linkRate is the delivered InfiniBand 4x data rate: 10 Gbps signalling,
	// 8b/10b coding, minus flow-control/header share.
	linkRateBps = 0.92e9
	// hcaSetup is HCA work per message visible as latency (WQE fetch,
	// protection checks) but pipelined off the data path.
	hcaSetup = 1600 * units.Nanosecond
	// hcaPerChunk is HCA occupancy per packet/chunk; one engine per
	// direction.
	hcaPerChunk = 250 * units.Nanosecond
	// hcaRate is the HCA's internal data path rate, faster than the link.
	hcaRateBps = 1.4e9
	// wireLatency covers cable flight plus port logic per hop.
	wireLatency = 120 * units.Nanosecond
	// switchCrossing is the InfiniScale cut-through crossing time.
	switchCrossing = 200 * units.Nanosecond
	// sendOverhead / recvOverhead are host costs per message (descriptor
	// build + doorbell; completion poll + bookkeeping). Sum = the paper's
	// ~1.7 us host overhead.
	sendOverhead = 900 * units.Nanosecond
	recvOverhead = 800 * units.Nanosecond
	// overheadPerKB adds the slight size dependence visible in Figure 3.
	overheadPerKB = 60 * units.Nanosecond
	// pioPenaltyPCI models slower doorbell/descriptor MMIO across plain
	// PCI; it is the bulk of the +0.6 us small-message latency of Fig. 26.
	pioPenaltyPCI = 500 * units.Nanosecond
	// eagerMax is MVAPICH's eager threshold; the Figure 2 bandwidth dip at
	// 2 KB is the switch to rendezvous.
	eagerMax = 2 * 1024
	// copyBW is host memcpy bandwidth for eager staging copies.
	copyBWMBps = 1600
	// Registration cost: VAPI register-memory-region verb.
	regPerOp    = 22 * units.Microsecond
	regPerPage  = 3500 * units.Nanosecond
	deregPerOp  = 8 * units.Microsecond
	deregPage   = 1200 * units.Nanosecond
	pinCapPages = 32768 // 128 MB pin-down cache
	// Memory model (Figure 13): MPI base plus per-RC-connection buffers
	// (pre-posted receives, RDMA fast-path buffers, QP/CQ state).
	memBase    = 14 * units.MB
	memPerPeer = 5200 * units.KB
	// connSetup is the three-way RC establishment cost paid on first
	// contact under on-demand connection management.
	connSetup = 350 * units.Microsecond
)

// rcRetry is the VAPI Reliable Connection retransmit policy: the HCA
// detects a missing ACK after a local-ack-timeout and resends, doubling
// the timeout each consecutive retry; after retry_count resends it posts a
// completion with a transport-retry-exceeded error.
var rcRetry = faults.RetryPolicy{Limit: 7, Interval: 150 * units.Microsecond, Exponential: true}

// Network is a wired InfiniBand cluster.
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
	bus   *bus.Bus
	hcaTx *sim.Pipe
	hcaRx *sim.Pipe
	link  *fabric.Link
}

// New wires an InfiniBand network with the given configuration.
func New(eng *sim.Engine, cfg Config) *Network {
	if cfg.Nodes < 1 {
		panic("verbs: need at least one node")
	}
	if cfg.SwitchPorts == 0 {
		cfg.SwitchPorts = 8
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
		topo, err := fabric.NewClos("ib-clos", cc, cfg.Nodes)
		if err != nil {
			n.cfgErr = fmt.Errorf("verbs: %w", err)
		} else {
			n.topo = topo
			n.dynamic = cc.Routing == fabric.Adaptive
			if cfg.Faults.HasElements() {
				if err := topo.SetElementFaults(cfg.Faults, eng); err != nil {
					n.cfgErr = fmt.Errorf("verbs: %w", err)
				}
				// Element deaths invalidate cached paths: every message must
				// re-resolve its route so detection-time re-hashes take effect.
				n.dynamic = true
			}
		}
	} else if cfg.FatTree != nil {
		ft := *cfg.FatTree
		if ft.LinkRate == 0 {
			ft.LinkRate = units.BytesPerSecond(linkRateBps)
		}
		if ft.Crossing == 0 {
			ft.Crossing = switchCrossing
		}
		if ft.WireLatency == 0 {
			ft.WireLatency = wireLatency
		}
		tree := fabric.NewFatTree("ib-fattree", ft)
		if cfg.Nodes > tree.Nodes() {
			panic(fmt.Sprintf("verbs: %d nodes exceed fat-tree capacity %d", cfg.Nodes, tree.Nodes()))
		}
		n.topo = tree
	} else {
		if cfg.Nodes > cfg.SwitchPorts {
			panic(fmt.Sprintf("verbs: %d nodes exceed %d switch ports", cfg.Nodes, cfg.SwitchPorts))
		}
		n.topo = fabric.NewCrossbarTopology(fabric.NewSwitch("infiniscale", fabric.SwitchConfig{
			Ports:    cfg.SwitchPorts,
			Crossing: switchCrossing,
			Rate:     units.BytesPerSecond(linkRateBps),
		}))
	}
	if cfg.Faults.HasElements() && cfg.Clos == nil {
		n.cfgErr = fmt.Errorf("verbs: fault plan schedules fabric-element deaths but the topology is not a Clos")
	}
	n.announceElementDeaths()
	for i := 0; i < cfg.Nodes; i++ {
		name := fmt.Sprintf("iba%d", i)
		n.nodes = append(n.nodes, &nodeHW{
			bus:   bus.New(name+"/bus", cfg.Bus),
			hcaTx: sim.NewPipe(name+"/hca-tx", units.BytesPerSecond(hcaRateBps), hcaPerChunk, 0),
			hcaRx: sim.NewPipe(name+"/hca-rx", units.BytesPerSecond(hcaRateBps), hcaPerChunk, 0),
			link: fabric.NewLink(name+"/link", fabric.LinkConfig{
				Rate:     units.BytesPerSecond(linkRateBps),
				PerChunk: 50 * units.Nanosecond,
				MinFrame: 64,
			}),
		})
	}
	return n
}

// Name implements dev.Network.
func (n *Network) Name() string { return "IBA" }

// Topology exposes the wired fabric topology — a debug surface for tests
// that flip fabric-level verification knobs (e.g. fabric.(*Clos).SetRouteCache)
// on a built network.
func (n *Network) Topology() fabric.Topology { return n.topo }

// Engine implements dev.Network.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Nodes implements dev.Network.
func (n *Network) Nodes() int { return n.cfg.Nodes }

// MinLinkLatency implements dev.LookaheadReporter: no message leaves a node
// and lands on another in less than one wire hop, whatever the protocol
// stacked above adds.
func (n *Network) MinLinkLatency() sim.Time { return wireLatency }

// ShmemBelow implements dev.Network: MVAPICH uses the shared-memory channel
// for intra-node messages under 16 KB and NIC loopback above.
func (n *Network) ShmemBelow() int64 { return 16 * units.KB }

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
// the MPI layer, which owns rank death; emitting them here too would
// duplicate the incident on every rail of a bond.
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
// domain (scale) mode. Hardware multicast fans out across every node from
// one event and a fault plan retransmits on verdicts read at delivery time —
// both are single-domain mechanisms, so either refuses activation.
func (n *Network) ActivateDomains() bool {
	if n.cfg.Domains == nil || n.cfg.HWMulticast || n.inj != nil {
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
// mode: one picosecond times (node+1), added to every cross-node hop. It
// breaks the systematic same-instant ties lockstep SPMD programs generate
// (identical compute constants on every rank), so cross-shard commit order
// — sorted (time, source shard, sequence) — agrees with serial dispatch
// order at every collision point. At 4096 nodes the perturbation tops out
// near 4 ns, well under any modelled wire latency.
func (n *Network) skew(node int) sim.Time {
	if !n.scale {
		return 0
	}
	return sim.Time(node + 1)
}

// ShmemConfig returns the intra-node channel parameters for MVAPICH.
func (n *Network) ShmemConfig() shmem.Config {
	c := shmem.DefaultConfig()
	c.Handshake = 1000 * units.Nanosecond // MVAPICH smp channel: ~1.6us small-message latency
	return c
}

// InstrumentMetrics implements metrics.Instrumentable: per-node bus, HCA
// engine, and link counters plus device-level spans, and the switching
// fabric's per-port counters. Endpoints created afterwards bind protocol
// counters and pin-cache probes to the same registry.
func (n *Network) InstrumentMetrics(m *metrics.Registry) {
	if m == nil {
		return
	}
	n.met = m
	for i, hw := range n.nodes {
		prefix := metrics.NodePrefix(i) + "nic"
		hw.bus.Instrument(m, i)
		hw.hcaTx.Instrument(m, prefix+"/tx")
		hw.hcaRx.Instrument(m, prefix+"/rx")
		hw.hcaTx.RecordSpans(m, i, "tx", "nic")
		hw.hcaRx.RecordSpans(m, i, "rx", "nic")
		hw.link.Instrument(m, i)
	}
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
			dev.Utilization{Resource: hw.hcaTx.Name(), Busy: hw.hcaTx.BusyTime(), Jobs: hw.hcaTx.Jobs()},
			dev.Utilization{Resource: hw.hcaRx.Name(), Busy: hw.hcaRx.BusyTime(), Jobs: hw.hcaRx.Jobs()},
			dev.Utilization{Resource: hw.link.Up().Name(), Busy: hw.link.Up().BusyTime(), Jobs: hw.link.Up().Jobs()},
			dev.Utilization{Resource: hw.link.Down().Name(), Busy: hw.link.Down().BusyTime(), Jobs: hw.link.Down().Jobs()},
		)
	}
	return out
}

// NewEndpoint implements dev.Network.
func (n *Network) NewEndpoint(node int) dev.Endpoint {
	if node < 0 || node >= len(n.nodes) {
		panic("verbs: bad node index")
	}
	ep := &endpoint{
		net:  n,
		node: node,
		pin: memreg.NewPinCache(
			memreg.CostModel{PerOp: regPerOp, PerPage: regPerPage},
			memreg.CostModel{PerOp: deregPerOp, PerPage: deregPage},
			pinCapPages),
	}
	ep.nic = dev.NewNICCounters(n.met, node)
	ep.connSetups = n.met.Counter(metrics.NodePrefix(node) + "nic/conn_setups")
	ep.retries = n.met.Counter(metrics.NodePrefix(node) + "nic/retries")
	ep.retryErrors = n.met.Counter(metrics.NodePrefix(node) + "nic/retry_exhausted")
	dev.InstrumentPinCache(n.met, node, ep.pin)
	return ep
}

type endpoint struct {
	net  *Network
	node int
	pin  *memreg.PinCache

	// sink receives permanent transfer failures (dev.FaultReporter).
	sink func(error)
	// onRetry observes each individual retransmit (dev.RetryReporter).
	onRetry func()

	// metric handles (nil-safe no-ops when instrumentation is off)
	nic         dev.NICCounters
	connSetups  *metrics.Counter
	retries     *metrics.Counter
	retryErrors *metrics.Counter

	// peers holds the resolved per-destination send state: the assembled
	// hardware path (the stage list for a (src, dst) pair never changes
	// under deterministic routing), its source-side stage count, and the
	// RC-connection flag for on-demand mode. One dense slice of lazily
	// materialized blocks: the hot path is a single index — no map lookups —
	// while an endpoint in a 4k-node world still only pays for the peers it
	// actually speaks to. Adaptive routing bypasses the cached path (the
	// up-link choice is per message) but keeps using the connection flag.
	peers []*peerState
	// nconn counts established RC connections under on-demand mode.
	nconn int
}

// peerState is one destination's resolved send state.
type peerState struct {
	path      []fabric.PathStage
	srcStages int
	connected bool
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

// retried counts one retransmit and feeds the passive health observer.
func (ep *endpoint) retried() {
	ep.retries.Inc()
	if ep.onRetry != nil {
		ep.onRetry()
	}
}

// fail reports a permanent transfer failure to the registered sink. With
// no sink (device used bare, without the MPI layer) the error is raised
// directly: losing it would turn a modelled failure into a silent hang.
func (ep *endpoint) fail(err error) {
	ep.retryErrors.Inc()
	if ep.sink != nil {
		ep.sink(err)
		return
	}
	panic(err)
}

func (ep *endpoint) Node() int { return ep.node }

func (ep *endpoint) EagerThreshold() int64 {
	if ep.net.cfg.EagerThreshold > 0 {
		return ep.net.cfg.EagerThreshold
	}
	return eagerMax
}

func (ep *endpoint) NICProgress() bool    { return false }
func (ep *endpoint) AcquireOnEager() bool { return false }
func (ep *endpoint) IssueStall() sim.Time { return 0 }

func (ep *endpoint) SendOverhead(size int64) sim.Time {
	return sendOverhead + sim.Time(size/units.KB)*overheadPerKB
}

func (ep *endpoint) RecvOverhead(size int64) sim.Time {
	return recvOverhead + sim.Time(size/units.KB)*overheadPerKB
}

func (ep *endpoint) CopyTime(size int64) sim.Time {
	return units.MBps(copyBWMBps).TimeFor(size)
}

func (ep *endpoint) AcquireBuf(b memreg.Buf) sim.Time {
	return ep.pin.Acquire(b)
}

func (ep *endpoint) MemoryUsage(npeers int) int64 {
	if ep.net.cfg.OnDemandConnections {
		// Only established connections hold buffer resources.
		return memBase + int64(ep.nconn)*memPerPeer
	}
	return memBase + int64(npeers)*memPerPeer
}

// connect pays the RC setup cost on first contact with a peer node under
// on-demand connection management; zero otherwise.
func (ep *endpoint) connect(dst int) sim.Time {
	if !ep.net.cfg.OnDemandConnections || dst == ep.node {
		return 0
	}
	p := ep.peer(dst)
	if p.connected {
		return 0
	}
	p.connected = true
	ep.nconn++
	ep.connSetups.Inc()
	return connSetup
}

// PinCache exposes the registration cache for tests and diagnostics.
func (ep *endpoint) PinCache() *memreg.PinCache { return ep.pin }

// pioPenalty is the per-message latency added by doorbell/descriptor MMIO,
// bus dependent.
func (ep *endpoint) pioPenalty() sim.Time {
	if ep.net.cfg.Bus == bus.PCI64x66 {
		return pioPenaltyPCI
	}
	return 0
}

// path returns the staged hardware path to dst, assembled once per
// destination and cached in the peer block — except under adaptive routing,
// where the fabric picks the up-link per message and the path must be
// rebuilt.
func (ep *endpoint) path(dst int) []fabric.PathStage {
	p, _ := ep.resolved(dst)
	return p
}

// resolved returns the staged path to dst and its source-side stage count —
// bus, HCA TX and link up, plus whatever the topology keeps on the source
// leaf (TransferCut runs those on the source's domain engine). Both are
// cached in the peer block; adaptive routing rebuilds the path per message.
func (ep *endpoint) resolved(dst int) ([]fabric.PathStage, int) {
	if ep.net.dynamic && dst != ep.node {
		return ep.buildPath(dst), 3 + fabric.SrcStagesOf(ep.net.topo, ep.node, dst)
	}
	p := ep.peer(dst)
	if p.path == nil {
		p.path = ep.buildPath(dst)
		p.srcStages = 3 + fabric.SrcStagesOf(ep.net.topo, ep.node, dst)
	}
	return p.path, p.srcStages
}

// buildPath assembles the staged hardware path to dst. The fabric is cut-
// through: injection serializes on the source's up-link and drain on the
// destination's down-link (which doubles as the switch output port in a
// star), with the switch crossing as pure latency. Same-node traffic loops
// through the HCA without touching the link or switch.
func (ep *endpoint) buildPath(dst int) []fabric.PathStage {
	src := ep.net.nodes[ep.node]
	if dst == ep.node {
		return []fabric.PathStage{
			{Stage: src.bus, Latency: ep.pioPenalty()},
			{Stage: src.hcaTx, Latency: hcaSetup},
			{Stage: src.hcaRx, Latency: hcaSetup},
			{Stage: src.bus},
		}
	}
	d := ep.net.nodes[dst]
	between, downLat := ep.net.topo.Between(ep.node, dst)
	stages := []fabric.PathStage{
		{Stage: src.bus, Latency: ep.pioPenalty()},
		{Stage: src.hcaTx, Latency: hcaSetup},
		{Stage: src.link.Up(), Latency: wireLatency + ep.net.skew(ep.node)},
	}
	stages = append(stages, between...)
	return append(stages,
		fabric.PathStage{Stage: d.link.Down(), Latency: downLat + wireLatency},
		fabric.PathStage{Stage: d.hcaRx, Latency: hcaSetup},
		fabric.PathStage{Stage: d.bus},
	)
}

// transfer moves size bytes to dst and fires done when they have landed.
// Healthy transfers hand done straight to the fabric — VAPI keeps no
// per-message state past the wire — so they allocate nothing.
func (ep *endpoint) transfer(dst int, size int64, done sim.Callback) {
	if ep.net.scale {
		// Domain mode: the attempt is fault-free by construction (activation
		// refuses fault plans) and untraced; the staged path is split at the
		// wire so each node's hardware state stays on its own engine.
		eng := ep.net.engineFor(ep.node)
		start := eng.Now() + ep.connect(dst)
		path, srcN := ep.resolved(dst)
		fabric.TransferCut(eng, ep.net.engineFor(dst), path, srcN,
			size, fabric.ChunkFor(size), start, done)
		return
	}
	eng := ep.net.eng
	rec := ep.net.rec
	// Capture trace context synchronously at issue time: the MPI layer (or
	// the rail bond) scoped it around this call.
	tid, rail := rec.Cur(), rec.CurRail()
	start := eng.Now() + ep.connect(dst)
	inj := ep.net.inj
	if inj == nil || dst == ep.node {
		// Healthy fabric, or HCA loopback that never touches the cable.
		fabric.TransferTraced(ep.net.eng, ep.path(dst), size, fabric.ChunkFor(size), start, ep.net.rec, tid, ep.node, rail, 0, done)
		return
	}
	start += inj.NICStall(ep.node, eng.Now()) + inj.BusDelay(ep.node, eng.Now())
	// VAPI RC reliability: each attempt re-resolves the route and re-runs
	// the full staged path (the retransmit re-occupies bus, HCA engines and
	// link), the verdict lands at delivery time, and a lost or CRC-failed
	// packet is retransmitted after an exponentially growing
	// local-ack-timeout. Under element faults the re-resolve is what heals:
	// a retry after the detection delay re-hashes onto a surviving plane,
	// while a detected dead end (crashed peer, partitioned fabric) fails
	// typed immediately instead of burning the retry budget.
	attempt := 1
	var try func(at sim.Time)
	try = func(at sim.Time) {
		if inj.NodeDeadDetected(dst, at) || inj.NodeDeadDetected(ep.node, at) {
			node := dst
			if inj.NodeDeadDetected(ep.node, at) {
				node = ep.node
			}
			ep.fail(&faults.NodeDownError{Node: node, At: at})
			return
		}
		path := ep.path(dst)
		fate := fabric.LastRouteOf(ep.net.topo)
		if fate.State == fabric.RoutePartitioned {
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
				done.Fire()
				return
			}
			if attempt > rcRetry.Limit {
				ep.fail(&faults.LinkError{Src: ep.node, Dst: dst,
					Attempts: attempt, Bytes: size, Proto: "RC retransmit"})
				return
			}
			delay := rcRetry.Delay(attempt)
			attempt++
			ep.retried()
			rec.Flight(msgtrace.FlightRetransmit, end, ep.node, tid, msgtrace.StageWire, int64(attempt-1), int64(dst))
			rec.Span(tid, msgtrace.StageBackoff, ep.node, rail, uint8(attempt-1), -1, end, end+delay, size)
			eng.At(end+delay, func() { try(eng.Now()) })
		})})
	}
	try(start)
}

// Multicast implements dev.Multicaster when the platform enables hardware
// multicast: the payload is injected once and the switch replicates it onto
// every down-link. Only compiled in spirit — the method exists always, but
// the MPI layer consults HWMulticastEnabled before using it.
func (ep *endpoint) Multicast(size int64, deliver func(node int)) {
	eng := ep.net.eng
	src := ep.net.nodes[ep.node]
	up := []fabric.PathStage{
		{Stage: src.bus, Latency: ep.pioPenalty()},
		{Stage: src.hcaTx, Latency: hcaSetup},
		{Stage: src.link.Up(), Latency: wireLatency},
	}
	fabric.Transfer(eng, up, size+32, fabric.ChunkFor(size), eng.Now(), sim.Callback{H: sim.Func(func() {
		at := eng.Now()
		for i := range ep.net.nodes {
			if i == ep.node {
				continue
			}
			i := i
			d := ep.net.nodes[i]
			between, downLat := ep.net.topo.Between(ep.node, i)
			down := append(append([]fabric.PathStage{}, between...),
				fabric.PathStage{Stage: d.link.Down(), Latency: downLat + wireLatency},
				fabric.PathStage{Stage: d.hcaRx, Latency: hcaSetup},
				fabric.PathStage{Stage: d.bus},
			)
			fabric.Transfer(eng, down, size+32, fabric.ChunkFor(size), at,
				sim.Callback{H: sim.Func(func() { deliver(i) })})
		}
	})})
}

// HWMulticastEnabled reports whether the platform was configured with the
// hardware-collective extension.
func (ep *endpoint) HWMulticastEnabled() bool { return ep.net.cfg.HWMulticast }

// Eager implements dev.Endpoint: MVAPICH sends small messages by RDMA write
// into pre-registered remote buffers; on the wire this is envelope+payload
// through the full path.
func (ep *endpoint) Eager(dst int, size int64, done sim.Callback) {
	ep.nic.Eager(size)
	ep.transfer(dst, size+32, done) // 32-byte envelope/header
}

// Control implements dev.Endpoint (RTS/CTS/FIN as small RDMA writes).
func (ep *endpoint) Control(dst int, done sim.Callback) {
	ep.nic.Control()
	ep.transfer(dst, 64, done)
}

// Bulk implements dev.Endpoint: the rendezvous payload as one RDMA write.
func (ep *endpoint) Bulk(dst int, size int64, done sim.Callback) {
	ep.nic.Bulk(size)
	ep.transfer(dst, size, done)
}

var _ dev.Network = (*Network)(nil)
var _ dev.Endpoint = (*endpoint)(nil)
