package mpi_test

import (
	"errors"
	"testing"

	"mpinet/internal/cluster"
	"mpinet/internal/metrics"
	"mpinet/internal/mpi"
)

// scaleWorkload mixes the protocol paths whose completions cross domains:
// eager and rendezvous ring exchanges, a wildcard receive, the pt2pt-built
// collectives, and a communicator split (the shared-board agreement).
func scaleWorkload(r *mpi.Rank) {
	n := r.Size()
	me := r.Rank()
	next, prev := (me+1)%n, (me-1+n)%n
	small, smallIn := r.Malloc(512), r.Malloc(512)
	big, bigIn := r.Malloc(256<<10), r.Malloc(256<<10)
	for i := 0; i < 3; i++ {
		r.Sendrecv(small, next, 1, smallIn, prev, 1)
		r.Sendrecv(big, next, 2, bigIn, prev, 2)
	}
	if me == 0 {
		buf := r.Malloc(4 << 10)
		for i := 1; i < n; i++ {
			r.Recv(buf, mpi.AnySource, 5)
		}
	} else {
		r.Send(r.Malloc(4<<10), 0, 5)
	}
	r.Barrier()
	r.Bcast(small, 0)
	r.Allreduce(small)
	sub := r.CommWorld().Split(me%2, me)
	sub.Barrier()
}

// runScale executes the workload at one shard count and returns the
// simulated end time.
func runScale(t *testing.T, p cluster.Platform, shards, procs, ppn int) int64 {
	t.Helper()
	p = p.With(cluster.WithShards(shards))
	w, err := mpi.NewWorld(mpi.Config{Net: p.New((procs + ppn - 1) / ppn), Procs: procs, ProcsPerNode: ppn})
	if err != nil {
		t.Fatalf("%s shards=%d: %v", p.Name, shards, err)
	}
	if !w.ScaleMode() {
		t.Fatalf("%s shards=%d: node domains not active", p.Name, shards)
	}
	if err := w.Run(scaleWorkload); err != nil {
		t.Fatalf("%s shards=%d: %v", p.Name, shards, err)
	}
	return int64(w.Elapsed())
}

// TestScaleShardInvariance is the headline determinism contract: a world on
// the topology API finishes at the identical simulated time at every shard
// count, on all three interconnects.
func TestScaleShardInvariance(t *testing.T) {
	for _, plat := range []cluster.Platform{
		cluster.IBA().With(cluster.FatTree(24, 2)),
		cluster.Myri().With(cluster.FatTree(24, 2)),
		cluster.QSN().With(cluster.FatTree(24, 2)),
	} {
		base := runScale(t, plat, 1, 64, 1)
		for _, shards := range []int{2, 4, 8} {
			if got := runScale(t, plat, shards, 64, 1); got != base {
				t.Fatalf("%s: elapsed %d at shards=%d, %d at shards=1", plat.Name, got, shards, base)
			}
		}
	}
}

// TestScaleSMPShardInvariance adds co-located ranks: the shared-memory
// channels live on each node's own engine, so intra-node traffic must stay
// shard-invariant too.
func TestScaleSMPShardInvariance(t *testing.T) {
	plat := cluster.IBA().With(cluster.FatTree(24, 2))
	base := runScale(t, plat, 1, 64, 2)
	if got := runScale(t, plat, 4, 64, 2); got != base {
		t.Fatalf("SMP world shard-variant: %d vs %d", got, base)
	}
}

// TestScaleAdaptiveShardInvariance pins the adaptive routing policy's
// replay: all its inputs (leaf queue depths, the seeded counter PRNG) are
// leaf-local, so a fixed seed must give byte-identical runs at any shard
// count.
func TestScaleAdaptiveShardInvariance(t *testing.T) {
	plat := cluster.QSN().With(cluster.FatTree(24, 2),
		cluster.WithRouting(cluster.Adaptive), cluster.WithSeed(99))
	base := runScale(t, plat, 1, 64, 1)
	for _, shards := range []int{2, 8} {
		if got := runScale(t, plat, shards, 64, 1); got != base {
			t.Fatalf("adaptive routing shard-variant: %d at shards=%d vs %d", got, shards, base)
		}
	}
}

// TestScaleClosThreeLevel exercises the deep fabric at a world size past
// the 2-level capacity, across shard counts.
func TestScaleClosThreeLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("512-rank world")
	}
	plat := cluster.Myri().With(cluster.Clos(3, 24, 2))
	base := runScale(t, plat, 1, 512, 1)
	if got := runScale(t, plat, 8, 512, 1); got != base {
		t.Fatalf("3-level Clos shard-variant: %d vs %d", got, base)
	}
}

// TestScaleModeRequiresCleanConfig: observability hooks keep the classic
// single-engine path, byte-for-byte.
func TestScaleModeRequiresCleanConfig(t *testing.T) {
	p := cluster.IBA().With(cluster.FatTree(24, 2), cluster.WithShards(4))
	w, err := mpi.NewWorld(mpi.Config{Net: p.New(32), Procs: 32, Metrics: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	if w.ScaleMode() {
		t.Fatal("metrics-instrumented world must not activate node domains")
	}
	if err := w.Run(func(r *mpi.Rank) { r.Barrier() }); err != nil {
		t.Fatal(err)
	}
	// Classic platforms (no topology option) never activate.
	w2, err := mpi.NewWorld(mpi.Config{Net: cluster.IBA().New(8), Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if w2.ScaleMode() {
		t.Fatal("classic crossbar world must not activate node domains")
	}
}

// TestScaleConfigErrorSurfaced: an invalid topology becomes a typed
// construction error from NewWorld, not a panic mid-run.
func TestScaleConfigErrorSurfaced(t *testing.T) {
	p := cluster.IBA().With(cluster.FatTree(25, 2))
	_, err := mpi.NewWorld(mpi.Config{Net: p.New(8), Procs: 8})
	var ce *cluster.ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v (%T), want *cluster.ConfigError", err, err)
	}
	if ce.Option != "FatTree(25, 2)" {
		t.Errorf("Option = %q", ce.Option)
	}
	// Capacity overflow surfaces the same way (via the device constructor).
	_, err = mpi.NewWorld(mpi.Config{Net: cluster.IBA().With(cluster.FatTree(24, 2)).New(1024), Procs: 1024})
	if err == nil {
		t.Fatal("1024 hosts accepted on a 384-host fabric")
	}
}

// TestScaleFaultSurfaces: a truncation in a multi-shard run still tears the
// job down with the typed error even though cross-shard wakes are deferred
// to quiescence.
func TestScaleFaultSurfaces(t *testing.T) {
	p := cluster.IBA().With(cluster.FatTree(24, 2), cluster.WithShards(4))
	w, err := mpi.NewWorld(mpi.Config{Net: p.New(32), Procs: 32})
	if err != nil {
		t.Fatal(err)
	}
	if !w.ScaleMode() {
		t.Fatal("node domains not active")
	}
	err = w.Run(func(r *mpi.Rank) {
		if r.Rank() == 17 {
			r.Send(r.Malloc(8<<10), 18, 3)
		}
		if r.Rank() == 18 {
			r.Recv(r.Malloc(64), 17, 3) // too small: MPI_ERR_TRUNCATE
		}
		r.Barrier()
	})
	if !errors.Is(err, mpi.ErrTruncate) {
		t.Fatalf("err = %v, want ErrTruncate", err)
	}
}

// TestScaleMemoryOrdering pins the paper's Figure 13 ordering at a
// thousand-rank world: per-connection VAPI state dwarfs GM's, which
// exceeds Elan's near-flat global mapping.
func TestScaleMemoryOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-rank worlds")
	}
	mem := map[string]int64{}
	for _, plat := range []cluster.Platform{cluster.IBA(), cluster.Myri(), cluster.QSN()} {
		p := plat.With(cluster.Clos(3, 24, 2))
		w, err := mpi.NewWorld(mpi.Config{Net: p.New(1024), Procs: 1024})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(func(r *mpi.Rank) {
			buf := r.Malloc(256)
			n := r.Size()
			r.Sendrecv(buf, (r.Rank()+1)%n, 0, buf, (r.Rank()-1+n)%n, 0)
		}); err != nil {
			t.Fatal(err)
		}
		mem[plat.Name] = w.MemoryUsage(0)
	}
	if !(mem["IBA"] > mem["Myri"] && mem["Myri"] > mem["QSN"]) {
		t.Fatalf("per-rank memory ordering broken: %v", mem)
	}
}
