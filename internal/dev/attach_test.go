package dev_test

import (
	"strings"
	"testing"

	"mpinet/internal/dev"
	"mpinet/internal/elan"
	"mpinet/internal/fabric"
	"mpinet/internal/faults"
	"mpinet/internal/gm"
	"mpinet/internal/msgtrace"
	"mpinet/internal/sim"
	"mpinet/internal/units"
	"mpinet/internal/verbs"
)

// wiring is the platform choice a conformance case builds a NIC model with.
type wiring struct {
	nodes     int
	clos      *fabric.ClosConfig // nil: the NIC's own crossbar
	plan      *faults.Plan
	domains   *dev.Domains
	multicast bool // IBA hardware multicast
}

// nic is one NIC model under test: its error prefix and a constructor
// from the shared wiring.
type nic struct {
	name, proto string
	multicast   bool // the model has a hardware-multicast option
	build       func(eng *sim.Engine, w wiring) dev.Network
}

var nics = []nic{
	{"IBA", "verbs", true, func(eng *sim.Engine, w wiring) dev.Network {
		cfg := verbs.DefaultConfig(w.nodes)
		cfg.Clos, cfg.Faults, cfg.Domains, cfg.HWMulticast = w.clos, w.plan, w.domains, w.multicast
		return verbs.New(eng, cfg)
	}},
	{"Myri", "gm", false, func(eng *sim.Engine, w wiring) dev.Network {
		cfg := gm.DefaultConfig(w.nodes)
		cfg.Clos, cfg.Faults, cfg.Domains = w.clos, w.plan, w.domains
		return gm.New(eng, cfg)
	}},
	{"QSN", "elan", false, func(eng *sim.Engine, w wiring) dev.Network {
		cfg := elan.DefaultConfig(w.nodes)
		cfg.Clos, cfg.Faults, cfg.Domains = w.clos, w.plan, w.domains
		return elan.New(eng, cfg)
	}},
}

// clos is the 1k-rank benchmark fabric's shape: 16 hosts and 8 up-links
// per leaf.
func clos() *fabric.ClosConfig { return &fabric.ClosConfig{Levels: 3, Radix: 24, Oversub: 2} }

// kills is a leaf death followed by a repaired spine-plane death, in
// disjoint windows.
func kills() *faults.Plan {
	return &faults.Plan{Seed: 7, SwitchKills: []faults.SwitchKill{
		{Level: 0, Index: 1, At: 10 * units.Microsecond},
		{Level: 1, Index: 11, At: 30 * units.Microsecond, RepairAt: 40 * units.Microsecond},
	}}
}

func TestAttachmentConformance(t *testing.T) {
	for _, nc := range nics {
		t.Run(nc.name, func(t *testing.T) {
			t.Run("ConfigErrCrossbarKill", func(t *testing.T) {
				net := nc.build(sim.New(), wiring{nodes: 8, plan: kills()})
				ce, ok := net.(dev.ConfigErrer)
				if !ok {
					t.Fatal("network carries no ConfigErr")
				}
				err := ce.ConfigErr()
				if err == nil || !strings.HasPrefix(err.Error(), nc.proto+":") ||
					!strings.Contains(err.Error(), "topology is not a Clos") {
					t.Fatalf("ConfigErr = %v, want %q-prefixed not-a-Clos error", err, nc.proto+":")
				}
			})

			t.Run("Diameter", func(t *testing.T) {
				diam := func(w wiring) int {
					return nc.build(sim.New(), w).(interface{ Diameter() int }).Diameter()
				}
				xbar, deep := diam(wiring{nodes: 8}), diam(wiring{nodes: 64, clos: clos()})
				if xbar == deep {
					t.Fatalf("crossbar and Clos(3,24,2) diameters both %d", xbar)
				}
			})

			t.Run("DeadElement", func(t *testing.T) {
				net := nc.build(sim.New(), wiring{nodes: 64, clos: clos(), plan: kills()})
				eh, ok := net.(dev.ElementHealth)
				if !ok {
					t.Fatal("network reports no element health")
				}
				for _, tc := range []struct {
					at   sim.Time
					name string
					code int64
				}{
					{5 * units.Microsecond, "", 0},
					{10 * units.Microsecond, "leaf 1", msgtrace.ElemCode(msgtrace.ElemLeaf, 1)},
					{29 * units.Microsecond, "leaf 1", msgtrace.ElemCode(msgtrace.ElemLeaf, 1)},
				} {
					name, code, dead := eh.DeadElement(tc.at)
					if dead != (tc.name != "") || name != tc.name || code != tc.code {
						t.Errorf("DeadElement(%v) = %q, %#x, %v; want %q, %#x", tc.at, name, code, dead, tc.name, tc.code)
					}
				}
				// The leaf never heals, so the spine window is checked on a
				// plan that kills only the spine.
				p := kills()
				p.SwitchKills = p.SwitchKills[1:]
				eh = nc.build(sim.New(), wiring{nodes: 64, clos: clos(), plan: p}).(dev.ElementHealth)
				plane := msgtrace.ElemCode(msgtrace.ElemPlane, 11%clos().Uplinks())
				for _, tc := range []struct {
					at   sim.Time
					dead bool
				}{{29 * units.Microsecond, false}, {30 * units.Microsecond, true}, {39 * units.Microsecond, true}, {40 * units.Microsecond, false}} {
					name, code, dead := eh.DeadElement(tc.at)
					if dead != tc.dead || (dead && (name != "spine plane 3" || code != plane)) {
						t.Errorf("DeadElement(%v) = %q, %#x, %v; want dead=%v spine plane 3", tc.at, name, code, dead, tc.dead)
					}
				}
			})

			t.Run("FlightElementDown", func(t *testing.T) {
				eng := sim.New()
				net := nc.build(eng, wiring{nodes: 64, clos: clos(), plan: kills()})
				rec := msgtrace.Disabled()
				net.(interface{ AttachTracer(*msgtrace.Recorder) }).AttachTracer(rec)
				if err := eng.Run(); err != nil {
					t.Fatal(err)
				}
				var got []msgtrace.FlightRec
				for _, f := range rec.FlightEntries() {
					if f.Kind == msgtrace.FlightElementDown {
						got = append(got, f)
					}
				}
				want := []struct {
					at           sim.Time
					code, repair int64
				}{
					{10 * units.Microsecond, msgtrace.ElemCode(msgtrace.ElemLeaf, 1), 0},
					{30 * units.Microsecond, msgtrace.ElemCode(msgtrace.ElemPlane, 3), int64(40 * units.Microsecond)},
				}
				if len(got) != len(want) {
					t.Fatalf("%d FlightElementDown entries, want %d: %+v", len(got), len(want), got)
				}
				for i, w := range want {
					if got[i].At != w.at || got[i].A != w.code || got[i].B != w.repair {
						t.Errorf("entry %d = at %v code %#x repair %d, want at %v code %#x repair %d",
							i, got[i].At, got[i].A, got[i].B, w.at, w.code, w.repair)
					}
				}
			})

			t.Run("ActivateDomains", func(t *testing.T) {
				activate := func(w wiring) bool {
					eng := sim.New()
					w.nodes = 8
					w.domains = &dev.Domains{NodeShard: make([]int, w.nodes), Engines: []*sim.Engine{eng}}
					return nc.build(eng, w).(dev.DomainNetwork).ActivateDomains()
				}
				if !activate(wiring{}) {
					t.Error("a clean world refused domain mode")
				}
				if activate(wiring{plan: &faults.Plan{Seed: 1}}) {
					t.Error("domain mode activated under a fault plan")
				}
				if nc.multicast && activate(wiring{multicast: true}) {
					t.Error("domain mode activated under hardware multicast")
				}
			})
		})
	}
}
