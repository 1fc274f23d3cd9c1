package rail

import (
	"mpinet/internal/dev"
	"mpinet/internal/faults"
	"mpinet/internal/msgtrace"
	"mpinet/internal/sim"
)

// State is a rail's health as seen by its failure detector.
type State int

const (
	// Healthy rails carry traffic at full priority.
	Healthy State = iota
	// Suspect rails are demoted below healthy ones but still usable; the
	// state is reached by consecutive probe misses or a run of device
	// retransmits, and left again (hysteresis) after RecoverAfter
	// consecutive probe successes.
	Suspect
	// Dead rails carry nothing; reached by DeadAfter consecutive misses or
	// immediately on a device-level permanent failure. A dead rail that
	// starts answering probes again (a flap window ending) recovers.
	Dead
)

// String returns the state's report name.
func (s State) String() string {
	switch s {
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	default:
		return "healthy"
	}
}

// monitor is one rail's failure detector. It is driven by three signals:
// active heartbeat probes (a Control message between a seeded pair of
// nodes each tick, raced against ProbeTimeout), passive consecutive-
// retransmit reports from the data endpoints, and a watchdog-adjacent scan
// for operations stalled in flight longer than StallAfter.
//
// The tick loop self-disarms after two quiet ticks (nothing in flight and
// no operations issued since the last tick) and is re-armed from the send
// path; without that, the recurring probe event would keep the engine's
// queue non-empty forever and Run would never return.
type monitor struct {
	net   *Network
	rail  int
	seed  uint64
	state State

	consecMiss int
	consecOK   int
	consecRetx int

	tick       uint64 // PRNG counter for probe target / jitter draws
	armed      bool
	idleTicks  int
	lastIssued uint64

	probeEps []dev.Endpoint // per-node probe endpoints, created on first arm
}

func newMonitor(n *Network, r int) *monitor {
	return &monitor{
		net:  n,
		rail: r,
		// Mix the rail index into the seed so co-bonded monitors draw
		// independent streams, and keep the stream space away from the
		// fault injector's link-indexed streams.
		seed: faults.RailSeed(n.tun.Seed^0xb0d9, r+1),
	}
}

// arm starts the heartbeat loop if it is not already running. Called from
// the send path, so probing only happens while the job communicates.
func (m *monitor) arm() {
	if m.armed || m.net.Nodes() < 2 {
		return
	}
	m.armed = true
	m.idleTicks = 0
	m.lastIssued = m.net.issued
	m.schedule()
}

// schedule queues the next tick one heartbeat (plus seeded jitter, so
// co-bonded rails do not probe in lockstep) from now. The monitor is its
// own typed event handler, so the recurring tick never allocates a
// closure (or a method value, which also heap-allocates).
func (m *monitor) schedule() {
	t := m.net.tun
	jitter := sim.Time(faults.Uniform(m.seed, 1, m.tick) * float64(t.Heartbeat) / 8)
	m.net.eng.Call(t.Heartbeat+jitter, m, 0, 0)
}

// HandleEvent implements sim.Handler: one heartbeat tick — decide whether
// to disarm, scan for stalled in-flight operations, launch a probe, and
// reschedule.
func (m *monitor) HandleEvent(int64, int64) {
	n := m.net
	if n.inflight == 0 && n.issued == m.lastIssued {
		m.idleTicks++
		if m.idleTicks >= 2 {
			m.armed = false
			return
		}
	} else {
		m.idleTicks = 0
	}
	m.lastIssued = n.issued
	m.scanStalls()
	m.probe()
	m.tick++
	m.schedule()
}

// scanStalls implements the watchdog-adjacent passive signal: any
// operation in flight on this rail for longer than StallAfter counts as
// one probe miss this tick.
func (m *monitor) scanStalls() {
	n := m.net
	now := n.eng.Now()
	for _, ep := range n.eps {
		for _, o := range ep.pending[m.rail] {
			if now-o.born > n.tun.StallAfter {
				n.waitStalls.Inc()
				m.miss()
				return
			}
		}
	}
}

// probe sends one heartbeat Control between a seeded (source, target)
// node pair and races it against ProbeTimeout. Dead rails are probed too:
// that is how a rail whose flap window has ended recovers.
//
// A probe that lands after its timeout still counts as a hit: a rail
// saturated with bulk traffic queues probes behind data for milliseconds,
// and that is slowness, not death. Misses therefore only accumulate to the
// demotion thresholds when probes stop arriving entirely — which under the
// fault model means they are being dropped (and the probe endpoint's own
// retry exhaustion reports the hard failure independently).
func (m *monitor) probe() {
	nodes := m.net.Nodes()
	m.ensureEps()
	src := int(m.tick % uint64(nodes))
	off := 1 + int(faults.Uniform(m.seed, 0, m.tick)*float64(nodes-1))
	if off >= nodes {
		off = nodes - 1
	}
	dst := (src + off) % nodes
	m.net.heartbeats.Inc()
	delivered := false
	var tm *sim.Timer
	m.probeEps[src].Control(dst, sim.Callback{H: sim.Func(func() {
		if delivered {
			return
		}
		delivered = true
		if tm != nil {
			tm.Stop()
		}
		m.hit()
	})})
	if delivered {
		return // defensive: a zero-latency model could deliver inline
	}
	tm = m.net.eng.AfterTimer(m.net.tun.ProbeTimeout, func() {
		if !delivered {
			m.miss()
		}
	})
}

// ensureEps lazily creates this rail's per-node probe endpoints. Their
// permanent failures (a probe exhausting the device retry budget) feed
// hardFail rather than the job's error sink: a dead probe is a dead rail,
// not a dead job.
func (m *monitor) ensureEps() {
	if m.probeEps != nil {
		return
	}
	rn := m.net.rails[m.rail]
	for node := 0; node < rn.Nodes(); node++ {
		pe := rn.NewEndpoint(node)
		if fr, ok := pe.(dev.FaultReporter); ok {
			fr.OnFault(func(error) { m.hardFail() })
		}
		m.probeEps = append(m.probeEps, pe)
	}
}

// miss records one failed probe (or stall strike) and demotes the rail
// when the consecutive-miss thresholds are crossed.
func (m *monitor) miss() {
	m.net.probeMisses.Inc()
	m.consecOK = 0
	m.consecMiss++
	t := m.net.tun
	switch {
	case m.state == Healthy && m.consecMiss >= t.SuspectAfter:
		m.to(Suspect)
	case m.state == Suspect && m.consecMiss >= t.DeadAfter:
		m.to(Dead)
	}
}

// hit records one successful probe; RecoverAfter consecutive hits restore
// a demoted rail (the hysteresis that keeps a flapping link from
// thrashing the policy).
func (m *monitor) hit() {
	m.consecMiss = 0
	m.consecRetx = 0
	m.consecOK++
	if m.state != Healthy && m.consecOK >= m.net.tun.RecoverAfter {
		m.to(Healthy)
		m.net.recoveries.Inc()
	}
}

// retransmit is the passive signal from the data endpoints' reliability
// protocols: a run of consecutive retransmits without an intervening
// delivery marks the rail suspect before any probe could.
func (m *monitor) retransmit() {
	m.consecRetx++
	if m.state == Healthy && m.consecRetx >= m.net.tun.RetxSuspect {
		m.to(Suspect)
	}
}

// delivered resets the passive retransmit run: the rail moved real data.
func (m *monitor) delivered() {
	m.consecRetx = 0
}

// hardFail is the unambiguous signal: a device reported permanent failure
// (retry budget exhausted), so the rail is dead immediately — no
// consecutive-miss ceremony.
func (m *monitor) hardFail() {
	m.consecOK = 0
	m.to(Dead)
}

// to transitions the detector, counting demotions.
func (m *monitor) to(s State) {
	if s == m.state {
		return
	}
	switch s {
	case Suspect:
		m.net.suspects.Inc()
	case Dead:
		m.net.deaths.Inc()
		// Rail deaths go straight to the always-on flight ring: they are
		// exactly the "what just happened" context a post-mortem dump needs.
		// When the rail's fabric knows a dead element caused the escalation
		// (a killed spine or leaf behind the retry storm), the incident
		// carries the element's code in B so the dump blames the switch, not
		// just the rail.
		var elem int64
		if eh, ok := m.net.rails[m.rail].(dev.ElementHealth); ok {
			if _, code, dead := eh.DeadElement(m.net.eng.Now()); dead {
				elem = code
			}
		}
		m.net.rec.Flight(msgtrace.FlightRailDown, m.net.eng.Now(), -1, 0,
			msgtrace.StageRail, int64(m.rail), elem)
	}
	m.state = s
	if s == Healthy {
		m.consecMiss = 0
	}
}
