package lowlevel

import (
	"testing"

	"mpinet/internal/cluster"
	"mpinet/internal/dev"
	"mpinet/internal/sim"
)

// pingPong bounces operations between the two endpoints of a two-node
// network: each completion makes the receiving side send the next one,
// cycling through eager, control and bulk operations. A is the side the
// completed operation landed on.
type pingPong struct {
	eps  [2]dev.Endpoint
	bulk int64
	left int
}

func (pp *pingPong) HandleEvent(side, _ int64) {
	if pp.left == 0 {
		return
	}
	pp.left--
	src, dst := int(side), 1-int(side)
	done := sim.Callback{H: pp, A: int64(dst)}
	switch pp.left % 3 {
	case 0:
		pp.eps[src].Eager(dst, 64, done)
	case 1:
		pp.eps[src].Control(dst, done)
	default:
		pp.eps[src].Bulk(dst, pp.bulk, done)
	}
}

// TestDeviceMessageZeroAlloc gates the NIC models below MPI: a healthy
// eager, control or bulk operation keeps its state in a recycled record
// (or none at all) and hands the fabric a typed continuation, so N and
// then 2N back-to-back operations on one network must allocate the same.
// The slack of one allocation per 64 operations covers the race-detector
// runtime, which allocates a few objects of its own that differ between
// identical runs; a record per operation of any one kind — a third of
// them — exceeds it.
func TestDeviceMessageZeroAlloc(t *testing.T) {
	for _, p := range cluster.OSU() {
		run := func(ops int) float64 {
			return testing.AllocsPerRun(2, func() {
				net, ep0, ep1 := twoNodes(p)
				pp := &pingPong{eps: [2]dev.Endpoint{ep0, ep1}, bulk: 64 * 1024, left: ops}
				net.Engine().Call(0, pp, 0, 0)
				if err := net.Engine().Run(); err != nil {
					t.Fatal(err)
				}
				if pp.left != 0 {
					t.Fatalf("%s: %d operations never completed", p.Name, pp.left)
				}
			})
		}
		const n = 900
		if one, two := run(n), run(2*n); two-one > n/64 {
			t.Errorf("%s: %d operations allocate %.0f, %d allocate %.0f: %.3f allocations per operation, want 0",
				p.Name, n, one, 2*n, two, (two-one)/n)
		}
	}
}
