package dev

import (
	"fmt"

	"mpinet/internal/fabric"
	"mpinet/internal/faults"
	"mpinet/internal/metrics"
	"mpinet/internal/msgtrace"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// Wiring is what a NIC model states when it attaches to its fabric: the
// platform's topology choice, fault plan and domain placement, plus the
// NIC's own switch names and calibration.
type Wiring struct {
	// Proto prefixes construction errors and panics ("verbs", "gm", "elan").
	Proto string
	// Nodes is the number of hosts attached.
	Nodes int
	// Crossbar names the single switch of Ports ports wired when neither
	// Clos nor FatTree is set.
	Crossbar string
	Ports    int
	// Clos (which wins) and FatTree are the multi-stage choices, built under
	// the given names; their zero rates and latencies are filled from Rate,
	// Crossing and Wire.
	Clos        *fabric.ClosConfig
	ClosName    string
	FatTree     *fabric.FatTreeConfig
	FatTreeName string
	// Rate is the link data rate, Crossing the switch cut-through time and
	// Wire the per-hop cable latency, which is also the cross-node latency
	// floor (MinLinkLatency).
	Rate     units.BytesPerSecond
	Crossing sim.Time
	Wire     sim.Time
	// Faults is the fault plan (nil: faults off); its element deaths need
	// a Clos.
	Faults *faults.Plan
	// Domains is the node-domain placement capability (nil: none).
	Domains *Domains
	// SingleDomain marks a NIC mechanism that fans out across nodes from
	// one event (verbs hardware multicast): ActivateDomains refuses.
	SingleDomain bool
	// Reliability is the NIC's retransmit protocol under a fault plan.
	Reliability Reliability
	// Paths lays the NIC's per-node stages around the topology's.
	Paths PathBuilder
}

// Fabric is a NIC model's network-side attachment, embedded by value in
// each NIC's Network. It owns the engine and domain placement, the wired
// topology, the fault injector and the message recorder, and implements
// the network-wide half of Network (Engine, Nodes, MinLinkLatency,
// Diameter, FaultPlan, AttachTracer) plus ConfigErrer, ElementHealth and
// DomainNetwork.
type Fabric struct {
	eng     *sim.Engine
	nodes   int
	domains *Domains
	topo    fabric.Topology
	wire    sim.Time
	inj     *faults.Injector
	rec     *msgtrace.Recorder
	met     *metrics.Registry

	// dynamic marks adaptive routing or element faults: paths are chosen
	// per message and must not be cached.
	dynamic bool
	// scale flips on domain mode: per-node engines, split transfers, and
	// the per-source picosecond skew that keeps sharded commit order equal
	// to serial dispatch order.
	scale bool
	// single refuses domain mode (Wiring.SingleDomain).
	single bool
	rel    Reliability
	paths  PathBuilder
	// cfgErr carries a topology-validation failure to mpi.NewWorld
	// (ConfigErrer); construction itself cannot return an error.
	cfgErr error
}

// Attach wires the fabric: it builds the topology, arms element faults on
// a Clos and schedules their flight-recorder announcements. A NIC calls it
// from its constructor before building its per-node hardware.
func (f *Fabric) Attach(eng *sim.Engine, w Wiring) {
	if w.Nodes < 1 {
		panic(w.Proto + ": need at least one node")
	}
	*f = Fabric{eng: eng, nodes: w.Nodes, domains: w.Domains, wire: w.Wire,
		inj: faults.NewInjector(w.Faults), single: w.SingleDomain, rel: w.Reliability, paths: w.Paths}
	if w.Clos != nil {
		cc := *w.Clos
		if cc.LinkRate == 0 {
			cc.LinkRate = w.Rate
		}
		if cc.Crossing == 0 {
			cc.Crossing = w.Crossing
		}
		if cc.WireLatency == 0 {
			cc.WireLatency = w.Wire
		}
		topo, err := fabric.NewClos(w.ClosName, cc, w.Nodes)
		if err != nil {
			f.cfgErr = fmt.Errorf("%s: %w", w.Proto, err)
		} else {
			f.topo = topo
			f.dynamic = cc.Routing == fabric.Adaptive
			if w.Faults.HasElements() {
				if err := topo.SetElementFaults(w.Faults, eng); err != nil {
					f.cfgErr = fmt.Errorf("%s: %w", w.Proto, err)
				}
				// Element deaths invalidate cached paths: every message must
				// re-resolve its route so detection-time re-hashes take effect.
				f.dynamic = true
			}
		}
	} else if w.FatTree != nil {
		ft := *w.FatTree
		if ft.LinkRate == 0 {
			ft.LinkRate = w.Rate
		}
		if ft.Crossing == 0 {
			ft.Crossing = w.Crossing
		}
		if ft.WireLatency == 0 {
			ft.WireLatency = w.Wire
		}
		tree := fabric.NewFatTree(w.FatTreeName, ft)
		if w.Nodes > tree.Nodes() {
			panic(fmt.Sprintf("%s: %d nodes exceed fat-tree capacity %d", w.Proto, w.Nodes, tree.Nodes()))
		}
		f.topo = tree
	} else {
		if w.Nodes > w.Ports {
			panic(fmt.Sprintf("%s: %d nodes exceed %d switch ports", w.Proto, w.Nodes, w.Ports))
		}
		f.topo = fabric.NewCrossbarTopology(fabric.NewSwitch(w.Crossbar, fabric.SwitchConfig{
			Ports:    w.Ports,
			Crossing: w.Crossing,
			Rate:     w.Rate,
		}))
	}
	if w.Faults.HasElements() && w.Clos == nil {
		f.cfgErr = fmt.Errorf("%s: fault plan schedules fabric-element deaths but the topology is not a Clos", w.Proto)
	}
	if w.Faults.HasElements() && f.cfgErr == nil && w.Clos != nil {
		f.announceElementDeaths(w.Faults.SwitchKills, w.Clos.Uplinks())
	}
}

// announceElementDeaths schedules one FlightElementDown incident per
// switch kill at its death instant, so a postmortem names the dead element
// even when no packet happened to ride it. Node crashes are announced by
// the MPI layer, which owns rank death; emitting them here too would
// duplicate the incident on every rail of a bond.
func (f *Fabric) announceElementDeaths(kills []faults.SwitchKill, uplinks int) {
	for _, k := range kills {
		code := msgtrace.ElemCode(msgtrace.ElemLeaf, k.Index)
		if k.Level >= 1 {
			code = msgtrace.ElemCode(msgtrace.ElemPlane, k.Index%uplinks)
		}
		at, repair := k.At, int64(k.RepairAt)
		f.eng.At(at, func() {
			f.rec.Flight(msgtrace.FlightElementDown, at, -1, 0, msgtrace.StageHop, code, repair)
		})
	}
}

// Engine implements Network.
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// Nodes implements Network.
func (f *Fabric) Nodes() int { return f.nodes }

// Topology exposes the wired fabric topology: the NIC's path builders
// splice its stages in, and tests flip fabric-level verification knobs
// (e.g. fabric.(*Clos).SetRouteCache) on a built network.
func (f *Fabric) Topology() fabric.Topology { return f.topo }

// Metrics is the registry InstrumentFabric bound, nil when
// instrumentation is off.
func (f *Fabric) Metrics() *metrics.Registry { return f.met }

// MinLinkLatency implements Network: no message leaves a node and lands on
// another in less than one wire hop, whatever the protocol above adds.
func (f *Fabric) MinLinkLatency() sim.Time { return f.wire }

// FaultPlan implements Network (nil when faults are off).
func (f *Fabric) FaultPlan() *faults.Plan { return f.inj.Plan() }

// Diameter implements Network.
func (f *Fabric) Diameter() int {
	if f.topo == nil {
		return 1
	}
	return fabric.DiameterOf(f.topo)
}

// DeadElement implements ElementHealth: forwarded to the fabric, which
// knows which of the plan's element kills is in effect.
func (f *Fabric) DeadElement(now sim.Time) (string, int64, bool) {
	if eh, ok := f.topo.(ElementHealth); ok {
		return eh.DeadElement(now)
	}
	return "", 0, false
}

// AttachTracer implements Network.
func (f *Fabric) AttachTracer(rec *msgtrace.Recorder) { f.rec = rec }

// ConfigErr implements ConfigErrer.
func (f *Fabric) ConfigErr() error { return f.cfgErr }

// Domains implements DomainNetwork.
func (f *Fabric) Domains() *Domains { return f.domains }

// ActivateDomains implements DomainNetwork: flips the network into domain
// (scale) mode. A fault plan retransmits on verdicts read at delivery time
// on the shared engine, and a single-domain NIC mechanism fans out across
// every node from one event, so either refuses activation.
func (f *Fabric) ActivateDomains() bool {
	if f.domains == nil || f.single || f.inj != nil {
		return false
	}
	f.scale = true
	return true
}

// Scaled reports whether domain mode is active.
func (f *Fabric) Scaled() bool { return f.scale }

// EngineFor returns the engine owning a node's device state: the shared
// engine in classic mode, the node's domain engine in scale mode.
func (f *Fabric) EngineFor(node int) *sim.Engine {
	if !f.scale {
		return f.eng
	}
	return f.domains.EngineFor(node)
}

// Skew is the deterministic per-source-node latency perturbation of domain
// mode: one picosecond times (node+1), added to every cross-node hop. It
// breaks the systematic same-instant ties lockstep SPMD programs generate
// (identical compute constants on every rank), so cross-shard commit order
// — sorted (time, source shard, sequence) — agrees with serial dispatch
// order at every collision point. At 4096 nodes the perturbation tops out
// near 4 ns, well under any modelled wire latency.
func (f *Fabric) Skew(node int) sim.Time {
	if !f.scale {
		return 0
	}
	return sim.Time(node + 1)
}

// InstrumentFabric binds the registry endpoints resolve their counters
// from and registers the topology's and the fault injector's instruments.
// A NIC calls it at the end of its InstrumentMetrics. A crossbar carries
// switch output contention on the destination's down-link (see
// fabric.Switch), so its own port pipes never run and stay unregistered;
// multi-stage fabrics register their leaf-tier links.
func (f *Fabric) InstrumentFabric(m *metrics.Registry) {
	f.met = m
	if ti, ok := f.topo.(interface{ Instrument(*metrics.Registry) }); ok {
		ti.Instrument(m)
	}
	f.inj.Instrument(m)
}

// Reliability is a NIC's retransmit protocol as the shared retry loop runs
// it.
type Reliability struct {
	// Policy is the retry budget and the delay before each re-issue.
	Policy faults.RetryPolicy
	// Proto names the protocol in a LinkError ("RC retransmit").
	Proto string
	// Resend, when non-nil, bills the sending node's NIC for each re-issue
	// just before it leaves.
	Resend func(node int)
}

// PathBuilder assembles a NIC's staged hardware path from node src to dst
// in the given variant (Elan: 0 PIO-sized, 1 DMA-sized; the others use 0
// only) and reports how many of its stages run on the source node before
// the topology's own.
type PathBuilder func(src, dst, variant int) (path []fabric.PathStage, srcStages int)

// Port is an endpoint's side of the attachment, embedded by value in each
// NIC endpoint: its node, the lazily built per-peer path cache, the fault
// and retry sinks, and the reliable transfer every Eager/Control/Bulk
// rides. It implements Endpoint.Node, FaultReporter and RetryReporter.
type Port struct {
	fab  *Fabric
	node int

	// peers holds each destination's resolved routes, one per variant:
	// a dense slice of lazily materialized blocks, so the hot path is a
	// single index while an endpoint in a 4k-node world only pays for the
	// peers it actually speaks to. Dynamic routing bypasses it.
	peers []*[2]route

	// sink receives permanent transfer failures (FaultReporter).
	sink func(error)
	// onRetry observes each individual retransmit (RetryReporter).
	onRetry func()

	// metric handles (nil-safe no-ops when instrumentation is off)
	retries     *metrics.Counter
	retryErrors *metrics.Counter
}

// route is one resolved path and its source-side stage count.
type route struct {
	path      []fabric.PathStage
	srcStages int
}

// NewPort attaches an endpoint on node, binding its retry counters to the
// registry InstrumentFabric bound.
func (f *Fabric) NewPort(node int) Port {
	return Port{
		fab:         f,
		node:        node,
		retries:     f.met.Counter(metrics.NodePrefix(node) + "nic/retries"),
		retryErrors: f.met.Counter(metrics.NodePrefix(node) + "nic/retry_exhausted"),
	}
}

// Node implements Endpoint.
func (p *Port) Node() int { return p.node }

// OnFault implements FaultReporter.
func (p *Port) OnFault(sink func(error)) { p.sink = sink }

// OnRetry implements RetryReporter.
func (p *Port) OnRetry(observe func()) { p.onRetry = observe }

// retried counts one retransmit and feeds the passive health observer.
func (p *Port) retried() {
	p.retries.Inc()
	if p.onRetry != nil {
		p.onRetry()
	}
}

// fail reports a permanent transfer failure to the registered sink. With
// no sink (device used bare, without the MPI layer) the error is raised
// directly: losing it would turn a modelled failure into a silent hang.
func (p *Port) fail(err error) {
	p.retryErrors.Inc()
	if p.sink != nil {
		p.sink(err)
		return
	}
	panic(err)
}

// route returns the staged path to dst in the variant and its source-side
// stage count: the NIC's own source stages plus whatever the topology keeps
// on the source leaf (TransferCut runs those on the source's domain
// engine). Both are cached in the peer block; dynamic routing rebuilds the
// path per message.
func (p *Port) route(dst, variant int) ([]fabric.PathStage, int) {
	if p.fab.dynamic && dst != p.node {
		path, n := p.fab.paths(p.node, dst, variant)
		return path, n + fabric.SrcStagesOf(p.fab.topo, p.node, dst)
	}
	if p.peers == nil {
		p.peers = make([]*[2]route, p.fab.nodes)
	}
	rs := p.peers[dst]
	if rs == nil {
		rs = new([2]route)
		p.peers[dst] = rs
	}
	r := &rs[variant]
	if r.path == nil {
		path, n := p.fab.paths(p.node, dst, variant)
		r.path, r.srcStages = path, n+fabric.SrcStagesOf(p.fab.topo, p.node, dst)
	}
	return r.path, r.srcStages
}

// Transfer moves size bytes to dst along the variant's path, leaving delay
// after now, and fires done when they have landed.
//
// In domain mode the attempt is fault-free by construction (activation
// refuses fault plans) and untraced; the staged path is split at the wire
// so each node's hardware state stays on its own engine. A healthy classic
// transfer hands done straight to the fabric, allocating nothing. Under a
// fault plan the NIC's reliability protocol runs: each attempt re-resolves
// the route and re-runs the full staged path, the verdict lands at delivery
// time, and a lost or damaged packet is re-issued after the policy's delay.
// Under element faults the re-resolve is what heals: a retry after the
// detection delay re-hashes onto a surviving plane, while a detected dead
// end (crashed peer, partitioned fabric) fails typed immediately instead of
// burning the retry budget. A permanent failure fires release (when it has
// a handler) before reporting the error.
func (p *Port) Transfer(dst, variant int, size int64, delay sim.Time, done, release sim.Callback) {
	f := p.fab
	if f.scale {
		eng := f.EngineFor(p.node)
		path, srcN := p.route(dst, variant)
		fabric.TransferCut(eng, f.EngineFor(dst), path, srcN,
			size, fabric.ChunkFor(size), eng.Now()+delay, done)
		return
	}
	eng, rec := f.eng, f.rec
	// Capture trace context synchronously at issue time: the MPI layer (or
	// the rail bond) scoped it around this call.
	tid, rail := rec.Cur(), rec.CurRail()
	start := eng.Now() + delay
	inj := f.inj
	if inj == nil || dst == p.node {
		// Healthy fabric, or NIC loopback that never touches the cable.
		path, _ := p.route(dst, variant)
		fabric.TransferTraced(eng, path, size, fabric.ChunkFor(size), start, rec, tid, p.node, rail, 0, done)
		return
	}
	start += inj.NICStall(p.node, eng.Now()) + inj.BusDelay(p.node, eng.Now())
	abort := func(err error) {
		if release.H != nil {
			release.Fire()
		}
		p.fail(err)
	}
	attempt := 1
	var try func(at sim.Time)
	try = func(at sim.Time) {
		if inj.NodeDeadDetected(dst, at) || inj.NodeDeadDetected(p.node, at) {
			node := dst
			if inj.NodeDeadDetected(p.node, at) {
				node = p.node
			}
			abort(&faults.NodeDownError{Node: node, At: at})
			return
		}
		path, _ := p.route(dst, variant)
		fate := fabric.LastRouteOf(f.topo)
		if fate.State == fabric.RoutePartitioned {
			abort(&faults.PartitionError{Src: p.node, Dst: dst, Element: fate.Element})
			return
		}
		fabric.TransferTraced(eng, path, size, fabric.ChunkFor(size), at, rec, tid, p.node, rail, uint8(attempt-1), sim.Callback{H: sim.Func(func() {
			end := eng.Now()
			v := faults.Drop // black-holed: structural loss, no PRNG draw
			if fate.State != fabric.RouteBlackhole {
				v = inj.VerdictExtra(p.node, dst, end, fate.ExtraDrop)
			}
			if v == faults.Deliver {
				done.Fire()
				return
			}
			if attempt > f.rel.Policy.Limit {
				abort(&faults.LinkError{Src: p.node, Dst: dst,
					Attempts: attempt, Bytes: size, Proto: f.rel.Proto})
				return
			}
			delay := f.rel.Policy.Delay(attempt)
			attempt++
			p.retried()
			rec.Flight(msgtrace.FlightRetransmit, end, p.node, tid, msgtrace.StageWire, int64(attempt-1), int64(dst))
			rec.Span(tid, msgtrace.StageBackoff, p.node, rail, uint8(attempt-1), -1, end, end+delay, size)
			eng.At(end+delay, func() {
				if f.rel.Resend != nil {
					f.rel.Resend(p.node)
				}
				try(eng.Now())
			})
		})})
	}
	try(start)
}
