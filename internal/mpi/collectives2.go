package mpi

import "mpinet/internal/memreg"

// Gather collects equal-size blocks from all ranks at root: rank i's
// sendBuf lands in recvBuf's i-th block. Non-roots may pass an empty
// recvBuf. Linear algorithm, as MPICH 1.2.x uses for gather.
func (r *Rank) Gather(sendBuf, recvBuf memreg.Buf, root int) {
	p := int64(r.Size())
	if r.Rank() == root && recvBuf.Size%p != 0 {
		panic("mpi: Gather recv buffer must divide evenly by world size")
	}
	r.collective("Gather", sendBuf.Size, func() {
		me := r.Rank()
		if me == root {
			block := recvBuf.Size / p
			var reqs []*Request
			for src := 0; src < int(p); src++ {
				if src == root {
					r.ps.busy(r.p, r.ps.ep.CopyTime(block))
					continue
				}
				reqs = append(reqs, r.irecvInternal(recvBuf.Slice(int64(src)*block, block), src, tagGather))
			}
			for _, req := range reqs {
				r.waitOne(req)
			}
			return
		}
		r.sendInternal(sendBuf, root, tagGather)
	}, sendBuf, recvBuf)
}

// Scatter distributes root's sendBuf in equal blocks: rank i receives the
// i-th block into recvBuf. Non-roots may pass an empty sendBuf. Linear, as
// MPICH 1.2.x.
func (r *Rank) Scatter(sendBuf, recvBuf memreg.Buf, root int) {
	p := int64(r.Size())
	if r.Rank() == root && sendBuf.Size%p != 0 {
		panic("mpi: Scatter send buffer must divide evenly by world size")
	}
	r.collective("Scatter", recvBuf.Size, func() {
		me := r.Rank()
		if me == root {
			block := sendBuf.Size / p
			var reqs []*Request
			for dst := 0; dst < int(p); dst++ {
				if dst == root {
					r.ps.busy(r.p, r.ps.ep.CopyTime(block))
					continue
				}
				reqs = append(reqs, r.isendInternal(sendBuf.Slice(int64(dst)*block, block), dst, tagGather))
			}
			for _, req := range reqs {
				r.waitOne(req)
			}
			return
		}
		r.recvInternal(recvBuf, root, tagGather)
	}, sendBuf, recvBuf)
}

// ReduceScatter combines per-block contributions and scatters the result:
// functionally Reduce followed by Scatter, which is also how MPICH 1.2.x
// composes it.
func (r *Rank) ReduceScatter(sendBuf, recvBuf memreg.Buf) {
	p := int64(r.Size())
	if sendBuf.Size%p != 0 {
		panic("mpi: ReduceScatter send buffer must divide evenly by world size")
	}
	r.collective("ReduceScatter", sendBuf.Size, func() {
		r.CommWorld().reduceBody(sendBuf, 0)
		// Scatter the combined blocks from rank 0.
		me := r.Rank()
		block := sendBuf.Size / p
		if me == 0 {
			var reqs []*Request
			for dst := 1; dst < int(p); dst++ {
				reqs = append(reqs, r.isendInternal(sendBuf.Slice(int64(dst)*block, block), dst, tagGather))
			}
			r.ps.busy(r.p, r.ps.ep.CopyTime(block))
			for _, req := range reqs {
				r.waitOne(req)
			}
			return
		}
		r.recvInternal(recvBuf, 0, tagGather)
	}, sendBuf, recvBuf)
}

// Scan computes the inclusive prefix reduction: rank i ends with the
// combination of ranks 0..i's contributions. Linear chain, as MPICH 1.2.x
// implements it.
func (r *Rank) Scan(buf memreg.Buf) {
	r.collective("Scan", buf.Size, func() {
		me := r.Rank()
		tmp := r.ps.scratch(buf.Size)
		if me > 0 {
			r.recvInternal(tmp, me-1, tagScan)
			r.ps.busy(r.p, reduceBW.TimeFor(buf.Size))
		}
		if me < r.Size()-1 {
			r.sendInternal(buf, me+1, tagScan)
		}
	}, buf)
}

// tagScan is the internal tag for Scan's chain.
const tagScan = -18

// Probe blocks until a message matching (src, tag) is available without
// receiving it, and returns its envelope. src may be AnySource, tag AnyTag.
func (r *Rank) Probe(src, tag int) Status {
	ps := r.ps
	var found *inMsg
	ps.waitFor(r.p, waitOp{desc: "probe"}, func() bool {
		found = ps.matchUnexpected(commWorldID, src, tag)
		return found != nil
	})
	return Status{Source: found.src, Tag: found.tag, Size: found.size}
}

// Iprobe drives progress once and reports whether a matching message is
// available, with its envelope.
func (r *Rank) Iprobe(src, tag int) (Status, bool) {
	ps := r.ps
	ps.poll(r.p)
	if m := ps.matchUnexpected(commWorldID, src, tag); m != nil {
		return Status{Source: m.src, Tag: m.tag, Size: m.size}, true
	}
	return Status{}, false
}
