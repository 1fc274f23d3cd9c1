package mpi

import (
	"mpinet/internal/memreg"
	"mpinet/internal/msgtrace"
	"mpinet/internal/sim"
	"mpinet/internal/trace"
)

// Rank is the MPI handle a rank's program uses — the analogue of
// MPI_COMM_WORLD plus the process-local calls. It is only valid inside the
// function passed to World.Run and must not be shared across ranks.
type Rank struct {
	p  *sim.Proc
	ps *procState
}

// Rank returns this process's rank in the world.
func (r *Rank) Rank() int { return r.ps.rank }

// Size returns the number of ranks.
func (r *Rank) Size() int { return r.ps.world.Size() }

// Node returns the node index this rank is mapped to.
func (r *Rank) Node() int { return r.ps.node }

// Wtime returns the current simulated time (MPI_Wtime).
func (r *Rank) Wtime() sim.Time { return r.p.Now() }

// Malloc allocates a fresh buffer in this rank's address space. Buffer
// identity feeds the registration caches and the reuse statistics, so
// benchmarks exercising reuse patterns must allocate rather than fabricate
// buffers.
func (r *Rank) Malloc(size int64) memreg.Buf { return r.ps.as.Alloc(size) }

// Compute advances simulated time by d of application computation. The MPI
// library makes no progress during it — exactly the behaviour the overlap
// micro-benchmark quantifies.
func (r *Rank) Compute(d sim.Time) { r.p.Sleep(d) }

// HostBusy returns the host CPU time this rank has spent inside the MPI
// library so far.
func (r *Rank) HostBusy() sim.Time { return r.ps.hostBusy }

// Send performs a blocking standard-mode send.
func (r *Rank) Send(buf memreg.Buf, dst, tag int) {
	req := r.ps.isendImpl(r.p, buf, dst, tag, false)
	req.pooled = true
	r.waitOne(req)
}

// Ssend performs a blocking synchronous send (MPI_Ssend): it completes only
// once the receiver has posted the matching receive. Implemented, as MPICH
// does, by forcing the rendezvous protocol regardless of size.
func (r *Rank) Ssend(buf memreg.Buf, dst, tag int) {
	if dst < 0 || dst >= r.Size() {
		panic("mpi: Ssend to invalid rank")
	}
	if tag < 0 {
		panic("mpi: user tags must be non-negative")
	}
	ps := r.ps
	ps.poll(r.p)
	dstPS := ps.world.procs[dst]
	if !ps.quiet {
		ps.prof.Send(buf, dstPS.node == ps.node, false)
	}
	req := ps.newRequest()
	*req = Request{ps: ps, isSend: true, buf: buf, comm: commWorldID, peer: dst, tag: tag, size: buf.Size, born: ps.eng.Now(), pooled: true}
	ps.sendSeq++
	req.seq = ps.sendSeq
	req.tid = msgtrace.MakeID(ps.rank, req.seq)
	ps.record(trace.EvSendStart, dst, tag, commWorldID, buf.Size)
	ps.world.rec.Begin(req.tid, int32(ps.rank), int32(dst), int32(tag), req.size, msgtrace.KindRndv, req.born)
	if dstPS.node != ps.node {
		ps.markNICPeer(dst)
	}
	ps.rndvSend(r.p, req, dstPS)
	r.waitOne(req)
}

// Bsend performs a buffered send (MPI_Bsend): the payload is copied into
// attached buffer space and the call returns immediately, whatever the
// size. Modelled as the host copy plus a send from library-owned staging
// whose completion the library, not the caller, owns.
func (r *Rank) Bsend(buf memreg.Buf, dst, tag int) {
	if dst < 0 || dst >= r.Size() {
		panic("mpi: Bsend to invalid rank")
	}
	if tag < 0 {
		panic("mpi: user tags must be non-negative")
	}
	ps := r.ps
	ps.poll(r.p)
	ps.busy(r.p, ps.ep.CopyTime(buf.Size))
	if !ps.quiet {
		ps.prof.Send(buf, ps.world.procs[dst].node == ps.node, false)
	}
	ps.quiet = true
	staging := ps.scratch(buf.Size)
	ps.startSend(r.p, staging, commWorldID, dst, tag, false)
	ps.quiet = false
}

// Recv performs a blocking receive. src may be AnySource, tag may be AnyTag.
func (r *Rank) Recv(buf memreg.Buf, src, tag int) Status {
	req := r.ps.irecvImpl(r.p, buf, src, tag, false)
	req.pooled = true
	return r.waitOne(req)
}

// Isend starts a non-blocking send.
func (r *Rank) Isend(buf memreg.Buf, dst, tag int) *Request {
	return r.ps.isendImpl(r.p, buf, dst, tag, true)
}

// Irecv starts a non-blocking receive.
func (r *Rank) Irecv(buf memreg.Buf, src, tag int) *Request {
	return r.ps.irecvImpl(r.p, buf, src, tag, true)
}

// Wait blocks until the request completes.
func (r *Rank) Wait(req *Request) Status {
	if req == nil || req.ps != r.ps {
		panic("mpi: Wait on foreign or nil request")
	}
	return r.waitOne(req)
}

// Waitall blocks until every request completes.
func (r *Rank) Waitall(reqs ...*Request) {
	for _, req := range reqs {
		if req != nil {
			r.Wait(req)
		}
	}
}

// Test drives progress once and reports whether the request has completed.
func (r *Rank) Test(req *Request) bool {
	r.ps.poll(r.p)
	return req.done
}

// Waitany blocks until at least one of the requests completes and returns
// its index and status (MPI_Waitany). Completed requests are not removed
// from the slice; the caller tracks which indices were returned.
func (r *Rank) Waitany(reqs []*Request) (int, Status) {
	if len(reqs) == 0 {
		panic("mpi: Waitany on empty request list")
	}
	idx := -1
	r.ps.waitFor(r.p, waitOp{desc: "waitany"}, func() bool {
		for i, req := range reqs {
			if req != nil && !req.done {
				if failed, ok := r.ps.world.peerFailed(req); ok {
					r.ps.failPeer(req, failed, waitOp{desc: "waitany"})
				}
			}
			if req != nil && req.done {
				idx = i
				return true
			}
		}
		return false
	})
	return idx, reqs[idx].status
}

// Sendrecv performs the blocking exchange (MPI_Sendrecv).
func (r *Rank) Sendrecv(sendBuf memreg.Buf, dst, sendTag int, recvBuf memreg.Buf, src, recvTag int) Status {
	rr := r.ps.irecvImpl(r.p, recvBuf, src, recvTag, false)
	rr.pooled = true
	sr := r.ps.isendImpl(r.p, sendBuf, dst, sendTag, false)
	sr.pooled = true
	r.waitOne(sr)
	return r.waitOne(rr)
}

func (r *Rank) waitOne(req *Request) Status {
	op := waitOp{desc: r.ps.waitWhy}
	if r.ps.world.cfg.Timeout > 0 {
		// With the watchdog armed, a TimeoutError names the stuck operation
		// and peer.
		op = waitOp{isSend: true, peer: req.peer, tag: req.tag, size: req.size}
		if !req.isSend {
			op = waitOp{peer: req.src, tag: req.tag}
		}
	}
	r.ps.waitFor(r.p, op, func() bool {
		if !req.done {
			// Rank-death notification: a wait on a dead peer resolves —
			// exceptionally completed under FaultTolerant, a typed job abort
			// otherwise — instead of riding the watchdog to a TimeoutError.
			if failed, ok := r.ps.world.peerFailed(req); ok {
				r.ps.failPeer(req, failed, op)
			}
		}
		return req.done
	})
	st := req.status
	if req.pooled {
		r.ps.releaseReq(req)
	}
	return st
}

// sendInternal/recvInternal are used by collectives: they bypass user-tag
// validation (internal tags are negative) but are otherwise full sends.
func (r *Rank) sendInternal(buf memreg.Buf, dst, tag int) {
	r.ps.poll(r.p)
	req := r.ps.startSend(r.p, buf, commWorldID, dst, tag, false)
	req.pooled = true
	r.waitOne(req)
}

func (r *Rank) isendInternal(buf memreg.Buf, dst, tag int) *Request {
	r.ps.poll(r.p)
	req := r.ps.startSend(r.p, buf, commWorldID, dst, tag, true)
	req.pooled = true // collectives always waitOne their internal requests
	return req
}

func (r *Rank) irecvInternal(buf memreg.Buf, src, tag int) *Request {
	r.ps.poll(r.p)
	req := r.ps.startRecv(r.p, buf, commWorldID, src, tag, true)
	req.pooled = true
	return req
}

func (r *Rank) recvInternal(buf memreg.Buf, src, tag int) {
	r.ps.poll(r.p)
	req := r.ps.startRecv(r.p, buf, commWorldID, src, tag, false)
	req.pooled = true
	r.waitOne(req)
}
