package mpi

import (
	"mpinet/internal/dev"
	"mpinet/internal/memreg"
	"mpinet/internal/units"
)

// reduceBW is the host rate of combining two operand streams (MPI_SUM-like
// ops on the paper's 2.4 GHz Xeons).
var reduceBW = units.MBps(800)

// collective wraps a collective body: records the call once and silences
// point-to-point profiling of its decomposition, matching what the MPICH
// logging interface sees at the MPI layer.
func (r *Rank) collective(name string, bytes int64, body func(), bufs ...memreg.Buf) {
	r.ps.prof.Collective(name, bytes, bufs...)
	r.ps.quiet = true
	defer func() { r.ps.quiet = false }()
	body()
}

// Barrier blocks until every rank has entered it (dissemination algorithm,
// correct for any world size).
func (r *Rank) Barrier() {
	c := r.CommWorld()
	r.collective("Barrier", 0, c.barrierBody)
}

// Bcast broadcasts buf from root. By default it runs the MPICH 1.2.x
// binomial tree; on a platform with the hardware-multicast extension
// enabled (and one rank per node) the payload rides a single
// switch-replicated injection instead.
func (r *Rank) Bcast(buf memreg.Buf, root int) {
	if mc, ok := r.ps.ep.(hwMulticaster); ok && mc.HWMulticastEnabled() &&
		r.ps.world.cfg.ProcsPerNode == 1 && r.Size() > 1 {
		r.collective("Bcast", buf.Size, func() { r.hwBcast(mc, buf, root) }, buf)
		return
	}
	c := r.CommWorld()
	r.collective("Bcast", buf.Size, func() { c.bcastBody(buf, root) }, buf)
}

// Reduce combines contributions into root over a binomial tree, charging
// the combine cost per received operand (commutative operation assumed, as
// for the workloads' MPI_SUM/MPI_MAX).
func (r *Rank) Reduce(buf memreg.Buf, root int) {
	c := r.CommWorld()
	r.collective("Reduce", buf.Size, func() { c.reduceBody(buf, root) }, buf)
}

// Allreduce is Reduce to rank 0 followed by Bcast — the MPICH 1.2.x
// composition, whose 2·log2(P) latency chain is why the lowest-latency
// interconnect (Quadrics) wins this operation in the paper.
func (r *Rank) Allreduce(buf memreg.Buf) {
	c := r.CommWorld()
	r.collective("Allreduce", buf.Size, func() {
		c.reduceBody(buf, 0)
		c.bcastBody(buf, 0)
	}, buf)
}

// hwMulticaster is the optional device capability behind the accelerated
// broadcast (the paper's Section 3.7 extension).
type hwMulticaster interface {
	dev.Multicaster
	HWMulticastEnabled() bool
}

// hwBcast is the multicast fast path: the root injects once; every other
// rank waits for the switch-replicated delivery.
func (r *Rank) hwBcast(mc hwMulticaster, buf memreg.Buf, root int) {
	ps := r.ps
	if r.Rank() == root {
		ps.busy(r.p, ps.ep.SendOverhead(buf.Size)+ps.ep.CopyTime(buf.Size))
		world := ps.world
		mc.Multicast(buf.Size, func(node int) {
			// One rank per node: the rank index equals the node index.
			dst := world.procs[node]
			dst.mcSeen++
			dst.notify()
		})
		return
	}
	ps.mcTaken++
	want := ps.mcTaken
	ps.waitFor(r.p, waitOp{desc: "hw-bcast"}, func() bool { return ps.mcSeen >= want })
	ps.busy(r.p, ps.ep.RecvOverhead(buf.Size)+ps.ep.CopyTime(buf.Size))
}

// Communicator-scoped collectives. Each records the call on this rank's
// profile and runs the same algorithms as the world-level operations, but
// scoped to the communicator's group and matching context.

// Barrier blocks until every communicator member has entered it.
func (c *Comm) Barrier() {
	c.r.collective("Barrier", 0, c.barrierBody)
}

// Bcast broadcasts buf from the communicator rank root.
func (c *Comm) Bcast(buf memreg.Buf, root int) {
	c.r.collective("Bcast", buf.Size, func() { c.bcastBody(buf, root) }, buf)
}

// Reduce combines contributions into the communicator rank root.
func (c *Comm) Reduce(buf memreg.Buf, root int) {
	c.r.collective("Reduce", buf.Size, func() { c.reduceBody(buf, root) }, buf)
}

// Allreduce combines contributions into every member.
func (c *Comm) Allreduce(buf memreg.Buf) {
	c.r.collective("Allreduce", buf.Size, func() {
		c.reduceBody(buf, 0)
		c.bcastBody(buf, 0)
	}, buf)
}

// barrierBody is the dissemination barrier over this communicator.
func (c *Comm) barrierBody() {
	p := c.Size()
	if p == 1 {
		return
	}
	zero := c.r.ps.scratch(0)
	for k := 1; k < p; k <<= 1 {
		dst := (c.me + k) % p
		src := (c.me - k + p) % p
		sr := c.isendInternal(zero, dst, tagBarrier)
		rr := c.irecvInternal(zero, src, tagBarrier)
		c.r.waitOne(sr)
		c.r.waitOne(rr)
	}
}

// bcastBody is the binomial-tree broadcast over this communicator.
func (c *Comm) bcastBody(buf memreg.Buf, root int) {
	p := c.Size()
	if p == 1 {
		return
	}
	relative := (c.me - root + p) % p
	mask := 1
	for mask < p {
		if relative&mask != 0 {
			src := c.me - mask
			if src < 0 {
				src += p
			}
			c.recvInternal(buf, src, tagBcast)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if relative+mask < p {
			dst := c.me + mask
			if dst >= p {
				dst -= p
			}
			c.sendInternal(buf, dst, tagBcast)
		}
		mask >>= 1
	}
}

// reduceBody is the binomial-tree reduction over this communicator.
func (c *Comm) reduceBody(buf memreg.Buf, root int) {
	p := c.Size()
	if p == 1 {
		return
	}
	relative := (c.me - root + p) % p
	tmp := c.r.ps.scratch(buf.Size)
	mask := 1
	for mask < p {
		if relative&mask == 0 {
			srcRel := relative | mask
			if srcRel < p {
				src := (srcRel + root) % p
				c.recvInternal(tmp, src, tagReduce)
				c.r.ps.busy(c.r.p, reduceBW.TimeFor(buf.Size))
			}
		} else {
			dst := (relative - mask + root) % p
			c.sendInternal(buf, dst, tagReduce)
			break
		}
		mask <<= 1
	}
}

// Alltoall exchanges equal-size blocks between all rank pairs: every rank
// sends sendBuf's i-th block to rank i. Implemented as the MPICH 1.2.x
// basic algorithm — post all receives, post all sends (rotated to avoid
// hot-spotting), wait for everything.
func (r *Rank) Alltoall(sendBuf, recvBuf memreg.Buf) {
	p := int64(r.Size())
	if sendBuf.Size%p != 0 || recvBuf.Size%p != 0 {
		panic("mpi: Alltoall buffers must divide evenly by world size")
	}
	block := sendBuf.Size / p
	counts := r.ps.int64Scratch(&r.ps.cntScratch, int(p))
	for i := range counts {
		counts[i] = block
	}
	r.collective("Alltoall", sendBuf.Size, func() {
		r.alltoallvBody(sendBuf, recvBuf, counts, counts)
	}, sendBuf, recvBuf)
}

// Alltoallv is the variable-block variant; sendCounts[i] bytes go to rank i
// and recvCounts[i] bytes are expected from rank i.
func (r *Rank) Alltoallv(sendBuf, recvBuf memreg.Buf, sendCounts, recvCounts []int64) {
	if len(sendCounts) != r.Size() || len(recvCounts) != r.Size() {
		panic("mpi: Alltoallv counts must have world-size entries")
	}
	var total int64
	for _, c := range sendCounts {
		total += c
	}
	r.collective("Alltoallv", total, func() {
		r.alltoallvBody(sendBuf, recvBuf, sendCounts, recvCounts)
	}, sendBuf, recvBuf)
}

func (r *Rank) alltoallvBody(sendBuf, recvBuf memreg.Buf, sendCounts, recvCounts []int64) {
	p := r.Size()
	me := r.Rank()
	// Offsets and the request list live in per-rank scratch: collectives are
	// not reentrant per rank, and the basic alltoall posts 2(p-1) requests
	// per call — a real allocation stream at a thousand ranks.
	off := r.ps.int64Scratch(&r.ps.offScratch, 2*p)
	sendOff, recvOff := off[:p], off[p:]
	var so, ro int64
	for i := 0; i < p; i++ {
		sendOff[i], recvOff[i] = so, ro
		so += sendCounts[i]
		ro += recvCounts[i]
	}
	reqs := r.ps.reqScratch[:0]
	for i := 1; i < p; i++ {
		src := (me - i + p) % p
		if recvCounts[src] > 0 {
			reqs = append(reqs, r.irecvInternal(recvBuf.Slice(recvOff[src], recvCounts[src]), src, tagAlltoall))
		}
	}
	for i := 1; i < p; i++ {
		dst := (me + i) % p
		if sendCounts[dst] > 0 {
			reqs = append(reqs, r.isendInternal(sendBuf.Slice(sendOff[dst], sendCounts[dst]), dst, tagAlltoall))
		}
	}
	// Local block "copies" itself; charge the memcpy.
	if sendCounts[me] > 0 {
		r.ps.busy(r.p, r.ps.ep.CopyTime(sendCounts[me]))
	}
	r.ps.reqScratch = reqs[:0]
	for _, req := range reqs {
		r.waitOne(req)
	}
}

// int64Scratch returns a length-n view of a reusable per-rank slice,
// growing the backing array only when a larger collective comes along.
func (ps *procState) int64Scratch(s *[]int64, n int) []int64 {
	if cap(*s) < n {
		*s = make([]int64, n)
	}
	return (*s)[:n]
}

// Allgather gathers equal-size blocks from all ranks to all ranks over a
// ring: step s passes rank (me-s)'s block along. recvBuf must hold
// world-size blocks; sendBuf is this rank's block.
func (r *Rank) Allgather(sendBuf, recvBuf memreg.Buf) {
	p := int64(r.Size())
	if recvBuf.Size%p != 0 {
		panic("mpi: Allgather recv buffer must divide evenly by world size")
	}
	block := recvBuf.Size / p
	if sendBuf.Size != block {
		panic("mpi: Allgather send buffer must be one block")
	}
	r.collective("Allgather", recvBuf.Size, func() {
		n := r.Size()
		if n == 1 {
			return
		}
		me := r.Rank()
		right := (me + 1) % n
		left := (me - 1 + n) % n
		// Own block "arrives" by local copy.
		r.ps.busy(r.p, r.ps.ep.CopyTime(block))
		for s := 0; s < n-1; s++ {
			outIdx := (me - s + n) % n
			inIdx := (me - s - 1 + n) % n
			sr := r.isendInternal(recvBuf.Slice(int64(outIdx)*block, block), right, tagAllgather)
			rr := r.irecvInternal(recvBuf.Slice(int64(inIdx)*block, block), left, tagAllgather)
			r.waitOne(sr)
			r.waitOne(rr)
		}
	}, sendBuf, recvBuf)
}
