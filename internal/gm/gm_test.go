package gm

import (
	"math"
	"testing"

	"mpinet/internal/memreg"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

func TestNetworkBasics(t *testing.T) {
	n := New(sim.New(), DefaultConfig(8))
	if n.Name() != "Myri" || n.Nodes() != 8 {
		t.Fatalf("name=%q nodes=%d", n.Name(), n.Nodes())
	}
	if n.ShmemBelow() != math.MaxInt64 {
		t.Fatal("MPICH-GM uses shared memory at every intra-node size")
	}
}

func TestDeviceProperties(t *testing.T) {
	n := New(sim.New(), DefaultConfig(2))
	ep := n.NewEndpoint(0)
	if ep.NICProgress() || ep.AcquireOnEager() {
		t.Error("GM is host-driven with staged eager copies")
	}
	if ep.EagerThreshold() != 16*1024 {
		t.Errorf("eager threshold = %d, want 16KB", ep.EagerThreshold())
	}
	if o := ep.SendOverhead(4) + ep.RecvOverhead(4); o > 1200*units.Nanosecond {
		t.Errorf("host overhead %v above the paper's ~0.8us", o)
	}
	if ep.MemoryUsage(1) != ep.MemoryUsage(7) {
		t.Error("GM memory should be flat in peer count")
	}
}

func TestLinkIsUniDirectionalBottleneck(t *testing.T) {
	// A single large bulk transfer should be limited by the 2 Gbps link:
	// ~235 MB/s.
	eng := sim.New()
	n := New(eng, DefaultConfig(2))
	ep := n.NewEndpoint(0)
	size := int64(4 * units.MB)
	var at sim.Time
	ep.Bulk(1, size, sim.Callback{H: sim.Func(func() { at = eng.Now() })})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	bw := float64(size) / at.Seconds() / float64(units.MB)
	if bw < 210 || bw > 245 {
		t.Fatalf("uni-directional bulk bandwidth = %.0f MB/s, want ~235", bw)
	}
}

func TestSRAMStagingStallsOnBidirBulk(t *testing.T) {
	// Two deep opposing bulk streams oversubscribe the 2 MB SRAM and
	// collapse throughput; a single stream must not.
	run := func(bidir bool) sim.Time {
		eng := sim.New()
		n := New(eng, DefaultConfig(2))
		ep0 := n.NewEndpoint(0)
		ep1 := n.NewEndpoint(1)
		size := int64(4 * units.MB)
		var done sim.Time
		ep0.Bulk(1, size, sim.Callback{H: sim.Func(func() { done = eng.Now() })})
		if bidir {
			ep1.Bulk(0, size, sim.Callback{H: sim.Func(func() {})})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	uni := run(false)
	bid := run(true)
	// Bidirectional large transfers must take clearly longer per direction
	// than full-duplex links alone would predict (which would be ~equal).
	if float64(bid) < float64(uni)*1.25 {
		t.Fatalf("no SRAM stall: uni %v, bidir %v", uni, bid)
	}
}

func TestACKsConsumeLANai(t *testing.T) {
	eng := sim.New()
	n := New(eng, DefaultConfig(2))
	ep := n.NewEndpoint(0)
	ep.Eager(1, 64, sim.Callback{H: sim.Func(func() {})})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Both LANai engines must have processed data + ACK work.
	if n.nodes[0].lanai.Jobs() < 2 || n.nodes[1].lanai.Jobs() < 2 {
		t.Fatalf("lanai jobs = %d/%d, want >=2 each (message + ACK)",
			n.nodes[0].lanai.Jobs(), n.nodes[1].lanai.Jobs())
	}
}

func TestRegistrationCache(t *testing.T) {
	n := New(sim.New(), DefaultConfig(2))
	ep := n.NewEndpoint(0)
	buf := memreg.Buf{Addr: 4096, Size: 64 * units.KB}
	if ep.AcquireBuf(buf) <= 0 {
		t.Fatal("first acquire free")
	}
	if ep.AcquireBuf(buf) != 0 {
		t.Fatal("warm acquire not free")
	}
}

func TestTooManyNodesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(sim.New(), Config{Nodes: 9, SwitchPorts: 8})
}

func TestEagerThresholdOverride(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.EagerThreshold = 4096
	n := New(sim.New(), cfg)
	if got := n.NewEndpoint(0).EagerThreshold(); got != 4096 {
		t.Fatalf("threshold = %d", got)
	}
}

func TestUtilizations(t *testing.T) {
	eng := sim.New()
	n := New(eng, DefaultConfig(2))
	n.NewEndpoint(0).Eager(1, 4096, sim.Callback{H: sim.Func(func() {})})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	us := n.Utilizations()
	if len(us) != 2*6 { // 2 nodes x (bus, lanai, sdma, rdma, up, down)
		t.Fatalf("utilization entries = %d, want 12", len(us))
	}
}

func TestShmemConfigHandshake(t *testing.T) {
	if New(sim.New(), DefaultConfig(1)).ShmemConfig().Handshake <= 0 {
		t.Fatal("no handshake configured")
	}
}

func TestLoopbackPath(t *testing.T) {
	eng := sim.New()
	n := New(eng, Config{Nodes: 1, SwitchPorts: 8})
	done := false
	n.NewEndpoint(0).Eager(0, 64, sim.Callback{H: sim.Func(func() { done = true })})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("loopback eager lost")
	}
}
