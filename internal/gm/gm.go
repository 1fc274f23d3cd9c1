// Package gm models the Myrinet side of the paper's testbed: M3F-PCIXD-2
// NICs (LANai-XP processor at 225 MHz with 2 MB on-board SRAM) on PCI-X,
// a Myrinet-2000 8-port crossbar, 2 Gbps-per-direction links, and a GM-like
// messaging layer (connectionless send/receive plus directed send,
// registration required) — the substrate MPICH-GM 1.2.5 runs on.
//
// Mechanisms represented:
//
//   - The 2 Gbps link is the uni-directional ceiling (~235 MB/s, Figure 2);
//     links are full duplex and the PCI-X bus has headroom, so
//     bi-directional traffic nearly doubles (~473 MB/s, Figure 5).
//   - The LANai processor orchestrates both directions: crossing traffic
//     queues behind it, which is the bi-directional latency penalty of
//     Figure 4 (6.7 us -> ~10 us).
//   - Send and receive payloads stage through the 2 MB SRAM; when both
//     directions carry deep large-message traffic the staging pool
//     oversubscribes and the DMA pipelines stall — the Figure 5 collapse
//     past 256 KB.
//   - MPICH-GM's eager path copies through pre-registered staging up to a
//     16 KB threshold; beyond it, directed send is zero-copy and pays
//     registration on pin-down cache misses (Figures 7, 8).
package gm

import (
	"fmt"
	"math"

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

// Config selects the Myrinet platform variant.
type Config struct {
	Nodes       int
	SwitchPorts int // 8 on the paper's Myrinet-2000 switch
	// EagerThreshold overrides MPICH-GM's default 16 KB rendezvous switch
	// point (0 = default); an ablation knob.
	EagerThreshold int64
	// Faults, when non-nil, injects the plan's link/NIC/bus faults and
	// enables the GM send-token resend machinery below.
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
	return Config{Nodes: nodes, SwitchPorts: 8}
}

// Calibration constants (see DESIGN.md §5).
const (
	// linkRate is 2 Gbps per direction.
	linkRateBps = 2e9 / 8
	// lanaiPerMsg is LANai firmware work per packet (routing header, event
	// handling); the engine is shared by both directions.
	lanaiPerMsg = 1550 * units.Nanosecond
	// ackProcess is LANai work to generate/absorb GM's reliability ACK for
	// each delivered message; ackFlight is its wire time back. Under
	// bi-directional load these ACKs queue behind data processing — the
	// Figure 4 bi-directional latency penalty.
	ackProcess = 1500 * units.Nanosecond
	ackFlight  = 600 * units.Nanosecond
	// sdma/rdma are the NIC's per-direction DMA engines between host
	// memory/SRAM and the wire.
	dmaRateBps  = 300e6
	dmaPerChunk = 300 * units.Nanosecond
	// sramBytes is the staging SRAM; when both directions carry more
	// outstanding bulk than it holds, the DMA engines stall on staging and
	// fall to dmaStallRate (the Figure 5 collapse below 340 MB/s total).
	sramBytes       = 2 * units.MB
	dmaStallRateBps = 175e6
	// Host overheads: GM keeps the host almost out of the way (sum ~0.8 us,
	// Figure 3).
	sendOverhead  = 450 * units.Nanosecond
	recvOverhead  = 350 * units.Nanosecond
	overheadPerKB = 35 * units.Nanosecond
	wireLatency   = 100 * units.Nanosecond
	// switchCrossing for the Myrinet-2000 crossbar (cut-through).
	switchCrossing = 300 * units.Nanosecond
	// eagerMax is MPICH-GM's rendezvous threshold.
	eagerMax = 16 * 1024
	copyBW   = 1600 // MB/s staging memcpy
	// Registration (gm_register_memory) cost model.
	regPerOp    = 15 * units.Microsecond
	regPerPage  = 2200 * units.Nanosecond
	deregPerOp  = 6 * units.Microsecond
	deregPage   = 900 * units.Nanosecond
	pinCapPages = 32768
	// Memory: MPICH-GM pre-allocates a flat pool regardless of peers
	// (Figure 13).
	memFlat = 22 * units.MB
)

// gmRetry is GM's send-token reliability: a sent token is only returned by
// the peer's ACK; when the ACK timeout lapses the LANai resends at a fixed
// interval, and after the resend budget it marks the connection dead and
// completes the send with GM_SEND_TIMED_OUT.
var gmRetry = faults.RetryPolicy{Limit: 15, Interval: 200 * units.Microsecond}

// Network is a wired Myrinet cluster.
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
	net   *Network
	node  int
	bus   *bus.Bus
	lanai *sim.Station // shared firmware engine
	sdma  *stallPipe   // host->wire DMA
	rdma  *stallPipe   // wire->host DMA
	link  *fabric.Link

	// staging accounting for the SRAM model
	outTx int64
	outRx int64

	// acks counts GM reliability ACKs this node's LANai absorbed (nil-safe)
	acks *metrics.Counter
}

// nodeHW event kinds: the GM-reliability and staging updates that land on
// a node after a delay (see HandleEvent).
const (
	// hwAck: a GM ACK reached this node's LANai; the second argument is the
	// send staging (outTx bytes) it releases.
	hwAck = iota
	// hwClaimRx: an inbound bulk claims the second argument's bytes of this
	// node's receive staging.
	hwClaimRx
)

// HandleEvent implements sim.Handler for the node-level updates a transfer
// schedules on its source (the ACK) or destination (the staging claim), on
// whichever engine owns the node.
func (hw *nodeHW) HandleEvent(kind, bytes int64) {
	switch kind {
	case hwAck:
		hw.outTx -= bytes
		hw.lanai.Use(hw.net.engineFor(hw.node).Now(), ackProcess)
		hw.acks.Inc()
	case hwClaimRx:
		hw.outRx += bytes
	}
}

// stallPipe is a DMA engine whose per-chunk occupancy inflates while the
// SRAM staging pool is oversubscribed by bi-directional bulk traffic.
type stallPipe struct {
	st *sim.Station
	hw *nodeHW
}

func (s *stallPipe) Send(now sim.Time, n int64) (start, end sim.Time) {
	rate := units.BytesPerSecond(dmaRateBps)
	if min64(s.hw.outTx, s.hw.outRx) > sramBytes {
		rate = units.BytesPerSecond(dmaStallRateBps)
	}
	return s.st.Use(now, dmaPerChunk+rate.TimeFor(n))
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// New wires a Myrinet network.
func New(eng *sim.Engine, cfg Config) *Network {
	if cfg.Nodes < 1 {
		panic("gm: need at least one node")
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
		topo, err := fabric.NewClos("myri-clos", cc, cfg.Nodes)
		if err != nil {
			n.cfgErr = fmt.Errorf("gm: %w", err)
		} else {
			n.topo = topo
			n.dynamic = cc.Routing == fabric.Adaptive
			if cfg.Faults.HasElements() {
				if err := topo.SetElementFaults(cfg.Faults, eng); err != nil {
					n.cfgErr = fmt.Errorf("gm: %w", err)
				}
				// Element deaths invalidate cached paths: every message must
				// re-resolve its route so detection-time re-hashes take effect.
				n.dynamic = true
			}
		}
	} else {
		if cfg.Nodes > cfg.SwitchPorts {
			panic(fmt.Sprintf("gm: %d nodes exceed %d switch ports", cfg.Nodes, cfg.SwitchPorts))
		}
		n.topo = fabric.NewCrossbarTopology(fabric.NewSwitch("myrinet2000", fabric.SwitchConfig{
			Ports:    cfg.SwitchPorts,
			Crossing: switchCrossing,
			Rate:     units.BytesPerSecond(linkRateBps),
		}))
	}
	if cfg.Faults.HasElements() && cfg.Clos == nil {
		n.cfgErr = fmt.Errorf("gm: fault plan schedules fabric-element deaths but the topology is not a Clos")
	}
	n.announceElementDeaths()
	for i := 0; i < cfg.Nodes; i++ {
		name := fmt.Sprintf("myri%d", i)
		hw := &nodeHW{
			net:   n,
			node:  i,
			bus:   bus.New(name+"/bus", bus.PCIX64x133),
			lanai: sim.NewStation(name + "/lanai"),
			link: fabric.NewLink(name+"/link", fabric.LinkConfig{
				Rate:     units.BytesPerSecond(linkRateBps),
				PerChunk: 60 * units.Nanosecond,
				MinFrame: 64,
			}),
		}
		hw.sdma = &stallPipe{st: sim.NewStation(name + "/sdma"), hw: hw}
		hw.rdma = &stallPipe{st: sim.NewStation(name + "/rdma"), hw: hw}
		n.nodes = append(n.nodes, hw)
	}
	return n
}

// Name implements dev.Network.
func (n *Network) Name() string { return "Myri" }

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

// ShmemBelow implements dev.Network: MPICH-GM uses shared memory for all
// intra-node message sizes.
func (n *Network) ShmemBelow() int64 { return math.MaxInt64 }

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
// domain (scale) mode. The GM send-token resend machinery reads fault
// verdicts at delivery time on the shared engine, so a fault plan refuses
// activation.
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

// ShmemConfig returns the intra-node channel parameters for MPICH-GM, whose
// shared-memory path has the lowest small-message cost of the three
// implementations (~1.3 us).
func (n *Network) ShmemConfig() shmem.Config {
	c := shmem.DefaultConfig()
	c.Handshake = 900 * units.Nanosecond
	return c
}

// InstrumentMetrics implements metrics.Instrumentable: per-node bus, LANai,
// DMA-engine and link counters plus device-level spans, switch port
// counters, and a GM-specific reliability-ACK count. Endpoints created
// afterwards bind protocol counters and pin-cache probes.
func (n *Network) InstrumentMetrics(m *metrics.Registry) {
	if m == nil {
		return
	}
	n.met = m
	for i, hw := range n.nodes {
		prefix := metrics.NodePrefix(i) + "nic"
		hw.bus.Instrument(m, i)
		m.ProbeCount(prefix+"/lanai_jobs", hw.lanai.Jobs)
		m.ProbeTime(prefix+"/lanai_busy_time", hw.lanai.BusyTime)
		m.ProbeTime(prefix+"/lanai_wait_time", hw.lanai.WaitTime)
		hw.lanai.RecordSpans(m, i, "firmware", "nic")
		for _, dma := range []struct {
			name string
			st   *sim.Station
		}{{"sdma", hw.sdma.st}, {"rdma", hw.rdma.st}} {
			m.ProbeCount(prefix+"/"+dma.name+"/jobs", dma.st.Jobs)
			m.ProbeTime(prefix+"/"+dma.name+"/busy_time", dma.st.BusyTime)
			m.ProbeTime(prefix+"/"+dma.name+"/wait_time", dma.st.WaitTime)
			dma.st.RecordSpans(m, i, dma.name, "nic")
		}
		hw.link.Instrument(m, i)
		hw.acks = m.Counter(prefix + "/acks")
	}
	// The star path carries switch output contention on the destination's
	// down-link (see fabric.Switch), so the crossbar's own port pipes never
	// run; multi-stage fabrics register their leaf-tier links here.
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
			dev.Utilization{Resource: hw.lanai.Name(), Busy: hw.lanai.BusyTime(), Jobs: hw.lanai.Jobs()},
			dev.Utilization{Resource: hw.sdma.st.Name(), Busy: hw.sdma.st.BusyTime(), Jobs: hw.sdma.st.Jobs()},
			dev.Utilization{Resource: hw.rdma.st.Name(), Busy: hw.rdma.st.BusyTime(), Jobs: hw.rdma.st.Jobs()},
			dev.Utilization{Resource: hw.link.Up().Name(), Busy: hw.link.Up().BusyTime(), Jobs: hw.link.Up().Jobs()},
			dev.Utilization{Resource: hw.link.Down().Name(), Busy: hw.link.Down().BusyTime(), Jobs: hw.link.Down().Jobs()},
		)
	}
	return out
}

// NewEndpoint implements dev.Network.
func (n *Network) NewEndpoint(node int) dev.Endpoint {
	if node < 0 || node >= len(n.nodes) {
		panic("gm: bad node index")
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
	ep.retries = n.met.Counter(metrics.NodePrefix(node) + "nic/retries")
	ep.retryErrors = n.met.Counter(metrics.NodePrefix(node) + "nic/retry_exhausted")
	dev.InstrumentPinCache(n.met, node, ep.pin)
	return ep
}

type endpoint struct {
	net  *Network
	node int
	pin  *memreg.PinCache
	nic  dev.NICCounters

	// sink receives permanent transfer failures (dev.FaultReporter).
	sink func(error)
	// onRetry observes each individual resend (dev.RetryReporter).
	onRetry     func()
	retries     *metrics.Counter
	retryErrors *metrics.Counter

	// peers holds the resolved per-destination send state: the staged path
	// through LANai, DMA engines and the fabric (static per (src, dst)
	// under deterministic routing) plus its source-side stage count. One
	// dense slice of lazily materialized blocks — the hot path is a single
	// index, no map lookups, and an endpoint in a 4k-node world only pays
	// for the peers it actually speaks to. Adaptive routing bypasses the
	// cache: the up-link choice is per message.
	peers []*peerState
}

// peerState is one destination's resolved send state.
type peerState struct {
	path      []fabric.PathStage
	srcStages int
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

// retried counts one resend and feeds the passive health observer.
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
	return units.MBps(copyBW).TimeFor(size)
}

func (ep *endpoint) AcquireBuf(b memreg.Buf) sim.Time {
	return ep.pin.Acquire(b)
}

func (ep *endpoint) MemoryUsage(npeers int) int64 { return memFlat }

// PinCache exposes the registration cache for tests and diagnostics.
func (ep *endpoint) PinCache() *memreg.PinCache { return ep.pin }

// lanaiStage bills the shared firmware engine once per message; modelled as
// a Stage so it sits in the path like hardware.
type lanaiStage struct{ st *sim.Station }

func (l lanaiStage) Send(now sim.Time, n int64) (start, end sim.Time) {
	return l.st.Use(now, lanaiPerMsg)
}

// path returns the staged path to dst, assembled once per destination and
// cached in the peer block — except under adaptive routing, where the
// fabric picks the up-link per message and the path must be rebuilt.
func (ep *endpoint) path(dst int) []fabric.PathStage {
	p, _ := ep.resolved(dst)
	return p
}

// resolved returns the staged path to dst and its source-side stage count —
// bus, LANai, send-DMA and link up, plus whatever the topology keeps on the
// source leaf (TransferCut runs those on the source's domain engine). Both
// are cached in the peer block; adaptive routing rebuilds the path per
// message.
func (ep *endpoint) resolved(dst int) ([]fabric.PathStage, int) {
	if ep.net.dynamic && dst != ep.node {
		return ep.buildPath(dst), 4 + fabric.SrcStagesOf(ep.net.topo, ep.node, dst)
	}
	p := ep.peer(dst)
	if p.path == nil {
		p.path = ep.buildPath(dst)
		p.srcStages = 4 + fabric.SrcStagesOf(ep.net.topo, ep.node, dst)
	}
	return p.path, p.srcStages
}

// buildPath assembles the staged path to dst. The LANai engine appears once
// per side per message (envelope processing); payload chunks flow through
// the per-direction DMA engines and the link, with the topology's stages
// (none for the star crossbar, leaf links for a Clos) between them.
func (ep *endpoint) buildPath(dst int) []fabric.PathStage {
	src := ep.net.nodes[ep.node]
	if dst == ep.node {
		return []fabric.PathStage{
			{Stage: src.bus},
			{Stage: lanaiStage{src.lanai}},
			{Stage: src.sdma},
			{Stage: src.rdma},
			{Stage: lanaiStage{src.lanai}},
			{Stage: src.bus},
		}
	}
	d := ep.net.nodes[dst]
	between, downLat := ep.net.topo.Between(ep.node, dst)
	stages := []fabric.PathStage{
		{Stage: src.bus},
		{Stage: lanaiStage{src.lanai}},
		{Stage: src.sdma},
		{Stage: src.link.Up(), Latency: wireLatency + ep.net.skew(ep.node)},
	}
	stages = append(stages, between...)
	return append(stages,
		fabric.PathStage{Stage: d.link.Down(), Latency: downLat + wireLatency},
		fabric.PathStage{Stage: lanaiStage{d.lanai}},
		fabric.PathStage{Stage: d.rdma},
		fabric.PathStage{Stage: d.bus},
	)
}

// op is one in-flight GM send: what its delivery needs to release SRAM
// staging and run GM reliability. Records are recycled through a per-engine
// free list — taken on the source's engine at issue, released on the
// destination's when the payload lands and returned to the source's list —
// so a healthy send allocates nothing.
type op struct {
	ep   *endpoint
	dst  int
	size int64
	bulk bool
	done sim.Callback
}

// ops recycles GM send records.
var ops = sim.NewFreeList[op]()

// HandleEvent implements sim.Handler: the transfer landed intact.
func (o *op) HandleEvent(int64, int64) { o.delivered() }

// delivered is the delivered-intact path, on the destination's engine:
// release SRAM staging and run GM reliability — the receiving LANai
// generates an ACK that the sending LANai must absorb one ack flight later.
// In domain mode the source's send staging is source-node state, so the
// ACK event releases it; otherwise it is released here, with the receive
// side. Then the record is freed and the MPI layer's continuation fires.
func (o *op) delivered() {
	n := o.ep.net
	src, dstHW := n.nodes[o.ep.node], n.nodes[o.dst]
	dstEng := n.engineFor(o.dst)
	var ackRelease int64
	if o.bulk {
		dstHW.outRx -= o.size
		if n.scale && dstHW != src {
			ackRelease = o.size
		} else {
			src.outTx -= o.size
		}
	}
	dstHW.lanai.Use(dstEng.Now(), ackProcess)
	dstHW.acks.Inc()
	if dstHW != src {
		dstEng.CallOn(n.engineFor(o.ep.node), ackFlight+n.skew(o.dst), src, hwAck, ackRelease)
	}
	done := o.done
	ops.Put(dstEng, n.engineFor(o.ep.node), o)
	done.Fire()
}

// transfer moves size bytes to dst (bulk: through SRAM staging) and fires
// done when they have landed.
//
// In domain mode the transfer is fault-free by construction (activation
// refuses fault plans) and untraced, with the staged path split at the
// wire so each node's hardware state stays on its own engine. The staging
// and GM-reliability side effects that touch the peer node are routed
// through cross-domain hops instead of mutated in place: the receiver's
// outRx staging claim lands one wire flight after issue, the sender's ACK
// (LANai absorb + outTx release) one ack flight after delivery, each
// carrying the originating node's skew so commit order stays a pure
// function of simulated time at every shard count.
func (ep *endpoint) transfer(dst int, size int64, bulk bool, done sim.Callback) {
	n := ep.net
	eng := n.engineFor(ep.node)
	src := n.nodes[ep.node]
	dstHW := n.nodes[dst]
	o := ops.Get(eng)
	*o = op{ep: ep, dst: dst, size: size, bulk: bulk, done: done}
	if bulk {
		src.outTx += size
		if n.scale && dstHW != src {
			eng.CallOn(n.engineFor(dst), wireLatency+n.skew(ep.node), dstHW, hwClaimRx, size)
		} else {
			dstHW.outRx += size
		}
	}
	if n.scale {
		path, srcN := ep.resolved(dst)
		fabric.TransferCut(eng, n.engineFor(dst), path, srcN,
			size, fabric.ChunkFor(size), eng.Now(), sim.Callback{H: o})
		return
	}
	rec := n.rec
	tid, rail := rec.Cur(), rec.CurRail()
	inj := n.inj
	if inj == nil || dst == ep.node {
		fabric.TransferTraced(ep.net.eng, ep.path(dst), size, fabric.ChunkFor(size), eng.Now(), ep.net.rec, tid, ep.node, rail, 0, sim.Callback{H: o})
		return
	}
	start := eng.Now() + inj.NICStall(ep.node, eng.Now()) + inj.BusDelay(ep.node, eng.Now())
	// release undoes the staging claim when the transfer fails permanently.
	release := func() {
		if bulk {
			src.outTx -= size
			dstHW.outRx -= size
		}
	}
	// GM send-token reliability: a lost or damaged packet means no ACK;
	// the sending LANai times out and resends at a fixed interval. The
	// send token (and its SRAM staging) stays held across resends —
	// exactly why faulty links amplify the Figure 5 staging pressure —
	// and each resend costs the LANai a firmware timeout handler. Each
	// attempt re-resolves the route (the GM mapper's up*/down* route remap):
	// after the detection delay a resend re-hashes around a dead element,
	// while a detected dead end fails typed without burning resends.
	attempt := 1
	var try func(at sim.Time)
	try = func(at sim.Time) {
		if inj.NodeDeadDetected(dst, at) || inj.NodeDeadDetected(ep.node, at) {
			node := dst
			if inj.NodeDeadDetected(ep.node, at) {
				node = ep.node
			}
			release()
			ep.fail(&faults.NodeDownError{Node: node, At: at})
			return
		}
		path := ep.path(dst)
		fate := fabric.LastRouteOf(n.topo)
		if fate.State == fabric.RoutePartitioned {
			release()
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
			if attempt > gmRetry.Limit {
				release()
				ep.fail(&faults.LinkError{Src: ep.node, Dst: dst,
					Attempts: attempt, Bytes: size, Proto: "GM send-token resend"})
				return
			}
			delay := gmRetry.Delay(attempt)
			attempt++
			ep.retried()
			rec.Flight(msgtrace.FlightRetransmit, end, ep.node, tid, msgtrace.StageWire, int64(attempt-1), int64(dst))
			rec.Span(tid, msgtrace.StageBackoff, ep.node, rail, uint8(attempt-1), -1, end, end+delay, size)
			eng.At(end+delay, func() {
				src.lanai.Use(eng.Now(), ackProcess)
				try(eng.Now())
			})
		})})
	}
	try(start)
}

// Eager implements dev.Endpoint (gm_send into a pre-posted receive buffer).
func (ep *endpoint) Eager(dst int, size int64, done sim.Callback) {
	ep.nic.Eager(size)
	ep.transfer(dst, size+32, false, done)
}

// Control implements dev.Endpoint.
func (ep *endpoint) Control(dst int, done sim.Callback) {
	ep.nic.Control()
	ep.transfer(dst, 64, false, done)
}

// Bulk implements dev.Endpoint (gm_directed_send, zero copy).
func (ep *endpoint) Bulk(dst int, size int64, done sim.Callback) {
	ep.nic.Bulk(size)
	ep.transfer(dst, size, true, done)
}

var _ dev.Network = (*Network)(nil)
var _ dev.Endpoint = (*endpoint)(nil)
