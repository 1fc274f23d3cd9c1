package mpi

import (
	"mpinet/internal/memreg"
	"mpinet/internal/msgtrace"
	"mpinet/internal/sim"
	"mpinet/internal/trace"
)

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	Size   int64
	// Err is non-nil when the operation completed exceptionally under
	// Config.FaultTolerant: the peer rank died and the wait was resolved
	// with a *RankFailedError (errors.Is(Err, ErrRankFailed)) instead of a
	// message. Size is 0 and Source names the dead rank in that case.
	Err error
}

// Request is a non-blocking operation handle, completed through Wait /
// Waitall.
type Request struct {
	ps      *procState
	isSend  bool
	buf     memreg.Buf
	comm    int // communicator context id
	peer    int // destination (sends) — senders always name their target
	src     int // source pattern (receives); may be AnySource
	tag     int
	size    int64
	seq     int64
	tid     msgtrace.ID // sends: the message's trace ID
	born    sim.Time    // post time, for request-lifetime accounting
	hsStart sim.Time    // rendezvous sends: when the RTS left, for the handshake span
	rndv    bool
	done    bool
	// pooled marks a request that never escapes its blocking caller:
	// waitOne returns it to the engine's free list once complete.
	pooled bool

	matched *inMsg // receives: the arrival this request is bound to
	status  Status
}

// reqs recycles the Request records of blocking operations.
var reqs = sim.NewFreeList[Request]()

// newRequest takes a zeroed Request from the engine's free list, counting
// a pool miss when it had to allocate. Requests are taken and released on
// their rank's engine, so the list needs no locking even in scale mode.
func (ps *procState) newRequest() *Request {
	r, fresh := reqs.Take(ps.eng)
	if fresh {
		ps.reqAllocs++
	}
	return r
}

// releaseReq zeroes a completed pooled request and returns it to the free
// list. Only waitOne calls it, and only for requests flagged pooled — a
// request handed to the user (Isend/Irecv) is never recycled.
func (ps *procState) releaseReq(r *Request) { reqs.Put(ps.eng, ps.eng, r) }

// Done reports whether the operation has completed (MPI_Test without the
// progress side effects; use Rank.Test to also drive progress).
func (r *Request) Done() bool { return r.done }

// complete marks a receive finished and detaches it from the queues.
func (r *Request) complete(src, tag int, size int64) {
	if size > r.buf.Size {
		// MPI_ERR_TRUNCATE: the payload does not fit the posted buffer. As
		// in an MPI run with errors-are-fatal, that is a hard stop naming
		// the culprit — recorded as the job's fault so World.Run returns a
		// typed error (errors.Is(err, ErrTruncate)) once the ranks abort.
		r.ps.world.fail(&TruncateError{
			Rank: r.ps.rank, Src: src, Tag: tag, Size: size, Buf: r.buf.Size,
		})
		return
	}
	r.done = true
	r.status = Status{Source: src, Tag: tag, Size: size}
	r.ps.removePosted(r)
	if m := r.matched; m != nil {
		// The envelope's last reader is this completion: read its trace ID,
		// then return it to the sender's engine.
		r.ps.world.rec.Finish(m.tid, r.ps.eng.Now())
		r.matched = nil
		msgs.Put(r.ps.eng, r.ps.world.procs[m.src].eng, m)
	}
	r.ps.record(trace.EvRecvDone, src, tag, r.comm, size)
	r.ps.finishReq(r, "recv")
	r.ps.notify()
}

// sendDone is a rendezvous send request as the target of its domain-mode
// completion hop (see bulkDone).
type sendDone Request

// HandleEvent implements sim.Handler: complete the send.
func (s *sendDone) HandleEvent(int64, int64) { (*Request)(s).completeSend() }

// completeSend marks a send finished.
func (r *Request) completeSend() {
	r.done = true
	r.ps.record(trace.EvSendDone, r.peer, r.tag, r.comm, r.size)
	r.ps.finishReq(r, "send")
	r.ps.notify()
}
