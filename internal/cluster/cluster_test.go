package cluster

import (
	"testing"

	"mpinet/internal/sim"
	"mpinet/internal/units"
)

func TestOSUPlatforms(t *testing.T) {
	ps := OSU()
	if len(ps) != 3 {
		t.Fatalf("OSU returns %d platforms", len(ps))
	}
	wantNames := []string{"IBA", "Myri", "QSN"}
	for i, p := range ps {
		if p.Name != wantNames[i] {
			t.Errorf("platform %d = %q, want %q", i, p.Name, wantNames[i])
		}
		n := p.New(8)
		if n.Nodes() != 8 {
			t.Errorf("%s: nodes = %d", p.Name, n.Nodes())
		}
		if n.Name() != p.Name {
			t.Errorf("%s: network name %q", p.Name, n.Name())
		}
	}
}

func TestFreshEnginesPerBuild(t *testing.T) {
	p := IBA()
	a, b := p.New(2), p.New(2)
	if a.Engine() == b.Engine() {
		t.Fatal("platforms must wire independent engines")
	}
}

func TestTopspinScales(t *testing.T) {
	n := Topspin().New(16)
	if n.Nodes() != 16 {
		t.Fatalf("Topspin nodes = %d", n.Nodes())
	}
	if n.Name() != "IBA" {
		t.Fatalf("Topspin network name = %q (reports as InfiniBand)", n.Name())
	}
}

func TestIBAPCIIsDistinctPlatform(t *testing.T) {
	if IBAPCI().Name != "IBA-PCI" {
		t.Fatal("IBA-PCI platform name")
	}
	// Both variants must wire fine at 8 nodes.
	if IBAPCI().New(8).Nodes() != 8 {
		t.Fatal("IBA-PCI wiring failed")
	}
}

func TestShmemPolicyDiffersAcrossPlatforms(t *testing.T) {
	iba := IBA().New(2).ShmemBelow()
	myri := Myri().New(2).ShmemBelow()
	qsn := QSN().New(2).ShmemBelow()
	if iba != 16*units.KB {
		t.Errorf("IBA shmem policy = %d", iba)
	}
	if myri <= iba {
		t.Error("MPICH-GM should use shared memory at all sizes")
	}
	if qsn != 0 {
		t.Error("Quadrics MPI should never use the shared-memory channel")
	}
}

func TestExtensionPlatforms(t *testing.T) {
	if IBAOnDemand().New(4).Nodes() != 4 {
		t.Fatal("IBA-OD wiring")
	}
	if IBAMulticast().New(4).Nodes() != 4 {
		t.Fatal("IBA-MC wiring")
	}
	if IBAEagerThreshold(8192).New(2).NewEndpoint(0).EagerThreshold() != 8192 {
		t.Fatal("IBA-ET threshold not applied")
	}
	ft := IBAFatTree(48).New(48)
	if ft.Nodes() != 48 {
		t.Fatal("IBA-FT wiring at 48 nodes")
	}
	// Small fat-tree requests still get at least two leaves.
	if IBAFatTree(8).New(8).Nodes() != 8 {
		t.Fatal("IBA-FT wiring at 8 nodes")
	}
}

func TestPlatformNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range []Platform{IBA(), IBAPCI(), Topspin(), Myri(), QSN(),
		IBAOnDemand(), IBAMulticast(), IBAFatTree(32), IBAEagerThreshold(4096)} {
		if seen[p.Name] {
			t.Fatalf("duplicate platform name %q", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestWithShardsBuildsShardedGroup(t *testing.T) {
	for _, mk := range []func() Platform{IBA, Myri, QSN} {
		p := mk().With(WithShards(4))
		if got := p.Name; got != mk().Name {
			t.Fatalf("WithShards changed the platform name to %q; shard count must not leak into reports", got)
		}
		net := p.New(4)
		eng := net.Engine()
		if eng.ShardID() != 0 {
			t.Fatalf("%s: network engine is shard %d, want 0", net.Name(), eng.ShardID())
		}
		// The member engine must drive the whole group: a trivial event on
		// shard 0 runs to completion under the window scheduler.
		ran := false
		eng.Schedule(0, func() { ran = true })
		if err := eng.Run(); err != nil {
			t.Fatalf("%s sharded Run: %v", net.Name(), err)
		}
		if !ran {
			t.Fatalf("%s: sharded engine dispatched nothing", net.Name())
		}
	}
}

func TestShardedLookaheadFromNetwork(t *testing.T) {
	// Each fabric states its own latency floor; the bond takes the fastest
	// member's. These feed the shard scheduler's lookahead directly.
	la := func(p Platform) sim.Time {
		la := p.New(2).MinLinkLatency()
		if la <= 0 {
			t.Fatalf("%s reports no lookahead", p.Name)
		}
		return la
	}
	iba, myri, qsn := la(IBA()), la(Myri()), la(QSN())
	if !(qsn < myri && myri < iba) {
		t.Errorf("lookahead ordering QSN(%v) < Myri(%v) < IBA(%v) violated", qsn, myri, iba)
	}
	if got := la(Bond(IBA(), QSN())); got != qsn {
		t.Errorf("bond lookahead %v, want fastest member %v", got, qsn)
	}
}

func TestPlatformPartition(t *testing.T) {
	p := IBA().With(WithShards(4)).Partition(8)
	if p.Shards != 4 || len(p.NodeShard) != 8 || p.SwitchShard != 0 {
		t.Fatalf("partition = %+v", p)
	}
	if q := IBA().Partition(8); q.Shards != 1 {
		t.Fatalf("unsharded partition has %d shards, want 1", q.Shards)
	}
}
