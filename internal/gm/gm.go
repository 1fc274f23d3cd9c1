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

// Network is a wired Myrinet cluster. The embedded attachment owns the
// engine, topology, fault injector and recorder; Network adds the LANai
// NICs.
type Network struct {
	dev.Fabric
	cfg   Config
	nodes []*nodeHW
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
		hw.lanai.Use(hw.net.EngineFor(hw.node).Now(), ackProcess)
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
	if cfg.SwitchPorts == 0 {
		cfg.SwitchPorts = 8
	}
	n := &Network{cfg: cfg}
	n.Attach(eng, dev.Wiring{
		Proto:       "gm",
		Nodes:       cfg.Nodes,
		Crossbar:    "myrinet2000",
		Ports:       cfg.SwitchPorts,
		Clos:        cfg.Clos,
		ClosName:    "myri-clos",
		Rate:        units.BytesPerSecond(linkRateBps),
		Crossing:    switchCrossing,
		Wire:        wireLatency,
		Faults:      cfg.Faults,
		Domains:     cfg.Domains,
		Reliability: dev.Reliability{Policy: gmRetry, Proto: "GM send-token resend", Resend: n.resend},
		Paths:       n.buildPath,
	})
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

// ShmemBelow implements dev.Network: MPICH-GM uses shared memory for all
// intra-node message sizes.
func (n *Network) ShmemBelow() int64 { return math.MaxInt64 }

// ShmemConfig returns the intra-node channel parameters for MPICH-GM, whose
// shared-memory path has the lowest small-message cost of the three
// implementations (~1.3 us).
func (n *Network) ShmemConfig() shmem.Config {
	c := shmem.DefaultConfig()
	c.Handshake = 900 * units.Nanosecond
	return c
}

// InstrumentMetrics implements metrics.Instrumentable: per-node bus, LANai,
// DMA-engine and link counters plus device-level spans and a GM-specific
// reliability-ACK count, then the attachment's fabric and fault-injector
// instruments. Endpoints created afterwards bind protocol counters and
// pin-cache probes.
func (n *Network) InstrumentMetrics(m *metrics.Registry) {
	if m == nil {
		return
	}
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
	n.InstrumentFabric(m)
}

// Utilizations implements dev.Network.
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
	m := n.Metrics()
	ep := &endpoint{
		net: n,
		pin: memreg.NewPinCache(
			memreg.CostModel{PerOp: regPerOp, PerPage: regPerPage},
			memreg.CostModel{PerOp: deregPerOp, PerPage: deregPage},
			pinCapPages),
	}
	ep.nic = dev.NewNICCounters(m, node)
	ep.Port = n.NewPort(node)
	dev.InstrumentPinCache(m, node, ep.pin)
	return ep
}

// endpoint is one process's GM port; the embedded Port carries its node,
// path cache, fault sinks and the send-token-reliable transfer.
type endpoint struct {
	dev.Port
	net *Network
	pin *memreg.PinCache
	nic dev.NICCounters
}

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

// resend is the Reliability hook: each resend costs the sending LANai a
// firmware timeout handler.
func (n *Network) resend(node int) {
	n.nodes[node].lanai.Use(n.EngineFor(node).Now(), ackProcess)
}

// buildPath assembles the staged path from node to dst (dev.PathBuilder;
// GM has one variant). The LANai engine appears once per side per message
// (envelope processing); payload chunks flow through the per-direction DMA
// engines and the link, with the topology's stages (none for the star
// crossbar, leaf links for a Clos) between them. Bus, LANai, send DMA and
// link up run on the source node.
func (n *Network) buildPath(node, dst, _ int) ([]fabric.PathStage, int) {
	src := n.nodes[node]
	if dst == node {
		return []fabric.PathStage{
			{Stage: src.bus},
			{Stage: lanaiStage{src.lanai}},
			{Stage: src.sdma},
			{Stage: src.rdma},
			{Stage: lanaiStage{src.lanai}},
			{Stage: src.bus},
		}, 4
	}
	d := n.nodes[dst]
	between, downLat := n.Topology().Between(node, dst)
	stages := []fabric.PathStage{
		{Stage: src.bus},
		{Stage: lanaiStage{src.lanai}},
		{Stage: src.sdma},
		{Stage: src.link.Up(), Latency: wireLatency + n.Skew(node)},
	}
	stages = append(stages, between...)
	return append(stages,
		fabric.PathStage{Stage: d.link.Down(), Latency: downLat + wireLatency},
		fabric.PathStage{Stage: lanaiStage{d.lanai}},
		fabric.PathStage{Stage: d.rdma},
		fabric.PathStage{Stage: d.bus},
	), 4
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

// opFailed is the op event kind of a permanent transfer failure (the
// release callback handed to the attachment's retry loop); kind 0 is the
// intact delivery.
const opFailed = 1

// HandleEvent implements sim.Handler: the transfer landed intact, or
// failed permanently and releases its SRAM staging claim.
func (o *op) HandleEvent(kind, _ int64) {
	if kind == opFailed {
		if o.bulk {
			o.ep.net.nodes[o.ep.Node()].outTx -= o.size
			o.ep.net.nodes[o.dst].outRx -= o.size
		}
		return
	}
	o.delivered()
}

// delivered is the delivered-intact path, on the destination's engine:
// release SRAM staging and run GM reliability — the receiving LANai
// generates an ACK that the sending LANai must absorb one ack flight later.
// In domain mode the source's send staging is source-node state, so the
// ACK event releases it; otherwise it is released here, with the receive
// side. Then the record is freed and the MPI layer's continuation fires.
func (o *op) delivered() {
	n := o.ep.net
	srcNode := o.ep.Node()
	src, dstHW := n.nodes[srcNode], n.nodes[o.dst]
	dstEng := n.EngineFor(o.dst)
	var ackRelease int64
	if o.bulk {
		dstHW.outRx -= o.size
		if n.Scaled() && dstHW != src {
			ackRelease = o.size
		} else {
			src.outTx -= o.size
		}
	}
	dstHW.lanai.Use(dstEng.Now(), ackProcess)
	dstHW.acks.Inc()
	if dstHW != src {
		dstEng.CallOn(n.EngineFor(srcNode), ackFlight+n.Skew(o.dst), src, hwAck, ackRelease)
	}
	done := o.done
	ops.Put(dstEng, n.EngineFor(srcNode), o)
	done.Fire()
}

// transfer moves size bytes to dst (bulk: through SRAM staging) and fires
// done when they have landed.
//
// In domain mode the staging and GM-reliability side effects that touch
// the peer node are routed through cross-domain hops instead of mutated in
// place: the receiver's outRx staging claim lands one wire flight after
// issue, the sender's ACK (LANai absorb + outTx release) one ack flight
// after delivery, each carrying the originating node's skew so commit
// order stays a pure function of simulated time at every shard count.
//
// Under a fault plan the attachment's retry loop runs GM send-token
// reliability: a lost or damaged packet means no ACK; the sending LANai
// times out and resends at a fixed interval. The send token (and its SRAM
// staging) stays held across resends — exactly why faulty links amplify
// the Figure 5 staging pressure — and each attempt re-resolves the route
// (the GM mapper's up*/down* route remap). A permanent failure releases
// the staging claim.
func (ep *endpoint) transfer(dst int, size int64, bulk bool, done sim.Callback) {
	n := ep.net
	node := ep.Node()
	eng := n.EngineFor(node)
	src := n.nodes[node]
	dstHW := n.nodes[dst]
	o := ops.Get(eng)
	*o = op{ep: ep, dst: dst, size: size, bulk: bulk, done: done}
	if bulk {
		src.outTx += size
		if n.Scaled() && dstHW != src {
			eng.CallOn(n.EngineFor(dst), wireLatency+n.Skew(node), dstHW, hwClaimRx, size)
		} else {
			dstHW.outRx += size
		}
	}
	ep.Transfer(dst, 0, size, 0, sim.Callback{H: o}, sim.Callback{H: o, A: opFailed})
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
