package fabric

import (
	"testing"

	"mpinet/internal/sim"
	"mpinet/internal/units"
)

func testTree() *FatTree {
	return NewFatTree("t", FatTreeConfig{
		HostsPerLeaf: 4,
		Leaves:       4,
		Spines:       2,
		LinkRate:     units.MBps(800),
		Crossing:     200 * units.Nanosecond,
		WireLatency:  100 * units.Nanosecond,
	})
}

func TestFatTreeDimensions(t *testing.T) {
	tr := testTree()
	if tr.Nodes() != 16 {
		t.Fatalf("nodes = %d, want 16", tr.Nodes())
	}
	if tr.LeafOf(0) != 0 || tr.LeafOf(3) != 0 || tr.LeafOf(4) != 1 || tr.LeafOf(15) != 3 {
		t.Fatal("leaf mapping wrong")
	}
}

func TestFatTreeHops(t *testing.T) {
	tr := testTree()
	if tr.Hops(0, 1) != 1 {
		t.Fatalf("same-leaf hops = %d, want 1", tr.Hops(0, 1))
	}
	if tr.Hops(0, 5) != 3 {
		t.Fatalf("cross-leaf hops = %d, want 3", tr.Hops(0, 5))
	}
}

func TestFatTreeBetween(t *testing.T) {
	tr := testTree()
	stages, lat := tr.Between(0, 1)
	if len(stages) != 0 || lat != 200*units.Nanosecond {
		t.Fatalf("same-leaf: %d stages, latency %v", len(stages), lat)
	}
	stages, _ = tr.Between(0, 5)
	if len(stages) != 2 {
		t.Fatalf("cross-leaf: %d stages, want 2", len(stages))
	}
}

func TestFatTreeDeterministicECMP(t *testing.T) {
	tr := testTree()
	a, _ := tr.Between(0, 5)
	b, _ := tr.Between(0, 5)
	if a[0].Stage != b[0].Stage || a[1].Stage != b[1].Stage {
		t.Fatal("route to the same destination changed")
	}
	// Different destinations on the same remote leaf spread across spines.
	r5, _ := tr.Between(0, 5)
	r6, _ := tr.Between(0, 6)
	if r5[0].Stage == r6[0].Stage {
		t.Fatal("ECMP did not spread destinations across spines")
	}
}

func TestFatTreeUplinkContention(t *testing.T) {
	// Two flows from the same leaf to destinations sharing a spine must
	// serialize on the single up-link; flows to different spines must not.
	tr := testTree()
	eng := sim.New()
	size := int64(4 * units.MB)
	run := func(dsts []int) sim.Time {
		var last sim.Time
		for _, dst := range dsts {
			stages, _ := tr.Between(0, dst)
			Transfer(eng, stages, size, DefaultChunk, eng.Now(), onDone(eng, func(at sim.Time) {
				if at > last {
					last = at
				}
			}))
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	// Destinations 4 and 6 hash to spines 0 and 0 (4%2, 6%2): same uplink.
	shared := run([]int{4, 6})
	eng2 := sim.New()
	tr2 := testTree()
	var last2 sim.Time
	for _, dst := range []int{4, 5} { // spines 0 and 1: disjoint uplinks
		stages, _ := tr2.Between(0, dst)
		Transfer(eng2, stages, size, DefaultChunk, eng2.Now(), onDone(eng2, func(at sim.Time) {
			if at > last2 {
				last2 = at
			}
		}))
	}
	if err := eng2.Run(); err != nil {
		t.Fatal(err)
	}
	if float64(shared) < float64(last2)*1.7 {
		t.Fatalf("shared-spine flows (%v) not ~2x disjoint-spine flows (%v)", shared, last2)
	}
}

func TestFatTreeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero dimensions accepted")
		}
	}()
	NewFatTree("bad", FatTreeConfig{})
}

func TestCrossbarTopology(t *testing.T) {
	sw := NewSwitch("x", SwitchConfig{Ports: 8, Crossing: 150 * units.Nanosecond, Rate: units.MBps(100)})
	topo := NewCrossbarTopology(sw)
	if topo.Nodes() != 8 {
		t.Fatal("crossbar nodes")
	}
	stages, lat := topo.Between(0, 5)
	if len(stages) != 0 || lat != 150*units.Nanosecond {
		t.Fatal("crossbar Between")
	}
}
