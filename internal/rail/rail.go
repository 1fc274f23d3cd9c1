// Package rail implements multi-rail channel bonding: 2-3 simulated
// fabrics (any combination of the InfiniBand, Myrinet and Quadrics device
// models) attached beneath a single MPI channel, the way the paper's
// 8-node testbed physically carries all three interconnects at once.
//
// Where PR 3's per-NIC retransmit machinery can only surface
// faults.ErrRetryExhausted when a link is permanently dead, the bond makes
// the job survive. Three mechanisms cooperate:
//
//   - A health monitor (monitor.go): a per-rail failure detector driven by
//     seeded heartbeat probes plus passive signals — consecutive device
//     retransmits and watchdog-adjacent wait stalls — with
//     healthy/suspect/dead state transitions and hysteresis so a flapping
//     link does not thrash the policy.
//
//   - An escalation ladder (endpoint.go): NIC-level retransmit (the
//     device's own reliability protocol, unchanged) escalates to rail-level
//     failover — the in-flight eager/rendezvous operation is re-issued on a
//     surviving rail — and only when every rail is dead does the job fail,
//     with the typed ErrAllRailsDown.
//
//   - Degraded-mode policies: Failover (primary/backup in declaration
//     order) and Stripe (large messages split across every healthy rail
//     with receiver-side reassembly, degrading to the survivors).
//
// MPI non-overtaking order survives failover and striping because the bond
// stamps every operation with a per-(source node, destination node)
// sequence number and holds out-of-order deliveries in a reorder buffer
// (the pair state below); a per-pair epoch is bumped on every re-issue and
// late duplicates — a delivery whose sequence number has already fired —
// are suppressed and counted, never delivered twice.
//
// Everything is deterministic: heartbeat jitter and probe targets come
// from the same counter-based PRNG as the fault injector (faults.Uniform),
// so a failover run replays byte-identically at any -j.
package rail

import (
	"errors"
	"fmt"

	"mpinet/internal/dev"
	"mpinet/internal/faults"
	"mpinet/internal/metrics"
	"mpinet/internal/msgtrace"
	"mpinet/internal/shmem"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// ErrAllRailsDown is the sentinel behind a bond-level permanent failure:
// every rail exhausted its device retry budget (or was already dead) for
// an operation, so there is nothing left to fail over to. Match with
// errors.Is.
var ErrAllRailsDown = errors.New("all rails down")

// AllRailsError is the concrete error behind ErrAllRailsDown: which
// operation ran out of rails, and the last device failure that exhausted
// the ladder. It unwraps to both ErrAllRailsDown and that device error, so
// errors.Is(err, faults.ErrRetryExhausted) holds too — a bond failing is
// retry exhaustion on every member.
type AllRailsError struct {
	Src, Dst int   // node indices of the doomed operation
	Bytes    int64 // wire size
	Rails    int   // rails the bond was built with
	Last     error // the device failure that killed the final rail (may be nil)
}

func (e *AllRailsError) Error() string {
	return fmt.Sprintf("rail: node%d->node%d (%d-byte packet): all %d rails down: %v (last: %v)",
		e.Src, e.Dst, e.Bytes, e.Rails, ErrAllRailsDown, e.Last)
}

// Unwrap makes errors.Is match ErrAllRailsDown and the underlying device
// failure chain.
func (e *AllRailsError) Unwrap() []error {
	if e.Last == nil {
		return []error{ErrAllRailsDown}
	}
	return []error{ErrAllRailsDown, e.Last}
}

// Policy selects the bond's degraded-mode behaviour.
type Policy int

const (
	// Failover sends everything on the highest-priority live rail (rails
	// are prioritized in declaration order) and re-issues in-flight
	// operations on the next one when it dies.
	Failover Policy = iota
	// Stripe additionally splits bulk (rendezvous) payloads at or above
	// StripeThreshold across every healthy rail, reassembling at the
	// receiver; when rails die it degrades to striping over the survivors,
	// and to Failover semantics with one rail left.
	Stripe
)

// String returns the policy's CLI/report name.
func (p Policy) String() string {
	if p == Stripe {
		return "stripe"
	}
	return "failover"
}

// Tuning is the bond's knob set. The zero value selects the documented
// defaults (applied by New); cluster.WithRailPolicy / cluster.WithHeartbeat
// adjust the two that experiments turn.
type Tuning struct {
	// Policy is the degraded-mode policy (default Failover).
	Policy Policy
	// Heartbeat is the probe period of the health monitor (default 1 ms).
	Heartbeat sim.Time
	// ProbeTimeout is how long the monitor waits for a probe before
	// declaring a miss (default Heartbeat/10).
	ProbeTimeout sim.Time
	// SuspectAfter / DeadAfter are the consecutive-miss thresholds for the
	// healthy->suspect and suspect->dead transitions (defaults 2 and 4).
	SuspectAfter, DeadAfter int
	// RecoverAfter is the hysteresis: consecutive probe successes before a
	// suspect or dead rail is declared healthy again (default 3).
	RecoverAfter int
	// RetxSuspect is the passive-signal threshold: this many consecutive
	// device retransmits without an intervening delivery mark the rail
	// suspect (default 8).
	RetxSuspect int
	// StallAfter is the watchdog-adjacent passive signal: an operation
	// in flight on a rail for longer than this counts as a probe miss at
	// the next heartbeat tick (default 5*Heartbeat).
	StallAfter sim.Time
	// StripeThreshold is the smallest bulk payload the Stripe policy
	// splits (default 64 KB).
	StripeThreshold int64
	// Seed keys the monitor's probe-jitter and target draws (default: the
	// fault plan's seed, or a fixed constant without one).
	Seed uint64
}

// withDefaults resolves the zero values.
func (t Tuning) withDefaults(plan *faults.Plan) Tuning {
	if t.Heartbeat <= 0 {
		t.Heartbeat = 1 * units.Millisecond
	}
	if t.ProbeTimeout <= 0 {
		t.ProbeTimeout = t.Heartbeat / 10
	}
	if t.SuspectAfter <= 0 {
		t.SuspectAfter = 2
	}
	if t.DeadAfter <= t.SuspectAfter {
		t.DeadAfter = t.SuspectAfter + 2
	}
	if t.RecoverAfter <= 0 {
		t.RecoverAfter = 3
	}
	if t.RetxSuspect <= 0 {
		t.RetxSuspect = 8
	}
	if t.StallAfter <= 0 {
		t.StallAfter = 5 * t.Heartbeat
	}
	if t.StripeThreshold <= 0 {
		t.StripeThreshold = 64 * units.KB
	}
	if t.Seed == 0 {
		if plan != nil && plan.Seed != 0 {
			t.Seed = plan.Seed
		} else {
			t.Seed = 0x5EEDDA11
		}
	}
	return t
}

// pair is the ordering state of one directed (source node, destination
// node) flow: the send-side sequence stamp, the failover epoch, and the
// receive-side reorder buffer. MPI's non-overtaking guarantee reduces to
// per-pair FIFO here because each device's staged path is itself FIFO —
// only cross-rail races (failover re-issue, striping) can reorder, and the
// buffer absorbs exactly those.
type pair struct {
	sendSeq     uint64
	epoch       uint64
	nextDeliver uint64
	held        map[uint64]sim.Callback
}

// Network is a bonded multi-rail interconnect: it implements dev.Network
// (and metrics.Instrumentable) by delegating to 2-3 member fabrics wired on
// one shared engine.
type Network struct {
	eng   *sim.Engine
	rails []dev.Network
	tun   Tuning
	plan  *faults.Plan // bond-level plan (rail entries unresolved)
	mon   []*monitor
	eps   []*endpoint // every bonded endpoint, for stall scanning

	pairs map[[2]int]*pair
	rec   *msgtrace.Recorder // message tracer (nil-safe when never attached)
	// issued counts bond-level operations; the monitors use it (with the
	// in-flight count) to disarm heartbeats when the job goes quiet, so the
	// event queue always drains.
	issued   uint64
	inflight int

	// metric handles (nil-safe no-ops until InstrumentMetrics binds them)
	met           *metrics.Registry
	heartbeats    *metrics.Counter
	probeMisses   *metrics.Counter
	waitStalls    *metrics.Counter
	suspects      *metrics.Counter
	deaths        *metrics.Counter
	recoveries    *metrics.Counter
	failovers     *metrics.Counter
	reissuedBytes *metrics.Counter
	dupSuppressed *metrics.Counter
	stripeChunks  *metrics.Counter
	stripeImbal   *metrics.Timer
	heldHW        *metrics.Gauge
	heldCount     int64
}

// New bonds the given member fabrics beneath one channel. All rails must
// be wired on the shared engine and agree on the node count; 2-3 rails are
// supported (1 would be pointless, and the paper's testbed carries 3).
// plan is the bond-level fault plan (nil when faults are off): rail-level
// entries (RailKills, RailDegrades) are expected to have been flattened
// into the members' own plans by the caller (internal/cluster does); New
// keeps it only to answer FaultPlan so the MPI watchdog arms.
func New(eng *sim.Engine, tun Tuning, plan *faults.Plan, rails ...dev.Network) *Network {
	if len(rails) < 2 || len(rails) > 3 {
		panic(fmt.Sprintf("rail: bond needs 2-3 rails, got %d", len(rails)))
	}
	for i, r := range rails {
		if r.Engine() != eng {
			panic(fmt.Sprintf("rail: rail %d (%s) is wired on its own engine; all rails must share the bond's", i, r.Name()))
		}
		if r.Nodes() != rails[0].Nodes() {
			panic(fmt.Sprintf("rail: rail %d (%s) has %d nodes, rail 0 (%s) has %d — all rails must agree",
				i, r.Name(), r.Nodes(), rails[0].Name(), rails[0].Nodes()))
		}
	}
	n := &Network{
		eng:   eng,
		rails: rails,
		tun:   tun.withDefaults(plan),
		plan:  plan,
		pairs: make(map[[2]int]*pair),
	}
	for i := range rails {
		n.mon = append(n.mon, newMonitor(n, i))
	}
	return n
}

// Name implements dev.Network: the member names joined with "+".
func (n *Network) Name() string {
	name := ""
	for i, r := range n.rails {
		if i > 0 {
			name += "+"
		}
		name += r.Name()
	}
	return name
}

// Engine implements dev.Network.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Nodes implements dev.Network.
func (n *Network) Nodes() int { return n.rails[0].Nodes() }

// Rails exposes the member fabrics (for tests and diagnostics).
func (n *Network) Rails() []dev.Network { return n.rails }

// MinLinkLatency implements dev.Network: a bonded message may ride any
// member rail, so the bound is the fastest member's (0, no bound, when a
// member states none).
func (n *Network) MinLinkLatency() sim.Time {
	var min sim.Time
	for i, r := range n.rails {
		if la := r.MinLinkLatency(); i == 0 || la < min {
			min = la
		}
	}
	return min
}

// Diameter implements dev.Network: a bonded message may ride any member
// rail, so the watchdog must budget for the deepest one.
func (n *Network) Diameter() int {
	max := 1
	for _, r := range n.rails {
		if d := r.Diameter(); d > max {
			max = d
		}
	}
	return max
}

// Tuning exposes the resolved knob set.
func (n *Network) Tuning() Tuning { return n.tun }

// RailState reports rail r's current detector state.
func (n *Network) RailState(r int) State { return n.mon[r].state }

// ShmemBelow implements dev.Network: the primary rail's MPI implementation
// decides the intra-node policy (the bond only multiplexes the wire side).
func (n *Network) ShmemBelow() int64 { return n.rails[0].ShmemBelow() }

// ShmemConfig forwards the primary rail's intra-node channel parameters.
func (n *Network) ShmemConfig() shmem.Config {
	if sc, ok := n.rails[0].(interface{ ShmemConfig() shmem.Config }); ok {
		return sc.ShmemConfig()
	}
	return shmem.DefaultConfig()
}

// FaultPlan implements dev.Network so the MPI watchdog arms on bonds whose
// members run under fault plans.
func (n *Network) FaultPlan() *faults.Plan {
	if n.plan != nil {
		return n.plan
	}
	for _, r := range n.rails {
		if p := r.FaultPlan(); p != nil {
			return p
		}
	}
	return nil
}

// AttachTracer implements dev.Network: the bond keeps the recorder for its
// own dispatch, failover and rail-death records and forwards it to every
// member fabric, so a message traced through the bond carries both the
// bond-level StageRail spans and the member device's wire/hop spans.
func (n *Network) AttachTracer(rec *msgtrace.Recorder) {
	n.rec = rec
	for _, r := range n.rails {
		r.AttachTracer(rec)
	}
}

// InstrumentMetrics implements metrics.Instrumentable: the bond's own
// rail/* instruments plus every member fabric's (same-name handles across
// rails aggregate, as co-located endpoints already do).
func (n *Network) InstrumentMetrics(m *metrics.Registry) {
	if m == nil {
		return
	}
	n.met = m
	n.heartbeats = m.Counter("rail/heartbeats")
	n.probeMisses = m.Counter("rail/probe_misses")
	n.waitStalls = m.Counter("rail/wait_stalls")
	n.suspects = m.Counter("rail/suspects")
	n.deaths = m.Counter("rail/deaths")
	n.recoveries = m.Counter("rail/recoveries")
	n.failovers = m.Counter("rail/failovers")
	n.reissuedBytes = m.Counter("rail/reissued_bytes")
	n.dupSuppressed = m.Counter("rail/dup_suppressed")
	n.stripeChunks = m.Counter("rail/stripe_chunks")
	n.stripeImbal = m.Timer("rail/stripe_imbalance")
	n.heldHW = m.Gauge("rail/reorder_held")
	for _, r := range n.rails {
		if in, ok := r.(metrics.Instrumentable); ok {
			in.InstrumentMetrics(m)
		}
	}
}

// Utilizations implements dev.Network: the concatenation of every member's
// accounting (resource names are already fabric-prefixed).
func (n *Network) Utilizations() []dev.Utilization {
	var out []dev.Utilization
	for _, r := range n.rails {
		out = append(out, r.Utilizations()...)
	}
	return out
}

// pairOf returns (creating if needed) the ordering state of src->dst.
func (n *Network) pairOf(src, dst int) *pair {
	key := [2]int{src, dst}
	p, ok := n.pairs[key]
	if !ok {
		p = &pair{}
		n.pairs[key] = p
	}
	return p
}

// arrived runs the receive-side reorder buffer: fire in-order deliveries
// immediately, hold ahead-of-order ones, and suppress (count) any sequence
// number that has already fired — the no-duplicate-delivery guarantee.
func (n *Network) arrived(src, dst int, seq uint64, fire sim.Callback) {
	pr := n.pairOf(src, dst)
	if seq < pr.nextDeliver {
		n.dupSuppressed.Inc()
		return
	}
	if seq > pr.nextDeliver {
		if pr.held == nil {
			pr.held = make(map[uint64]sim.Callback)
		}
		pr.held[seq] = fire
		n.heldCount++
		n.heldHW.Set(n.heldCount)
		return
	}
	pr.nextDeliver++
	fire.Fire()
	for {
		f, ok := pr.held[pr.nextDeliver]
		if !ok {
			return
		}
		delete(pr.held, pr.nextDeliver)
		pr.nextDeliver++
		n.heldCount--
		n.heldHW.Set(n.heldCount)
		f.Fire()
	}
}

// pickRail returns the highest-priority live rail, preferring healthy
// over suspect, excluding `exclude` (pass -1 for none). ok is false when
// every rail is dead (or excluded).
func (n *Network) pickRail(exclude int) (int, bool) {
	for _, want := range []State{Healthy, Suspect} {
		for i, m := range n.mon {
			if i != exclude && m.state == want {
				return i, true
			}
		}
	}
	return 0, false
}

// stripeSet returns the rails a striped bulk may use: every healthy rail,
// or — when none is healthy — every suspect one.
func (n *Network) stripeSet() []int {
	var set []int
	for i, m := range n.mon {
		if m.state == Healthy {
			set = append(set, i)
		}
	}
	if len(set) == 0 {
		for i, m := range n.mon {
			if m.state == Suspect {
				set = append(set, i)
			}
		}
	}
	return set
}

// armMonitors (re)starts every rail's heartbeat loop; called on each send
// so probing only runs while the job communicates.
func (n *Network) armMonitors() {
	for _, m := range n.mon {
		m.arm()
	}
}

var _ dev.Network = (*Network)(nil)
var _ metrics.Instrumentable = (*Network)(nil)
