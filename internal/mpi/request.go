package mpi

// reqKind selects the wait behavior of a request. The wait used to be a
// per-request closure; a typed dispatch over a handful of pooled fields
// performs the same progression with no per-operation allocation.
type reqKind int

const (
	// reqNone: nothing to progress (completed/error requests).
	reqNone reqKind = iota
	// reqRecv completes a posted receive (match, then payload).
	reqRecv
	// reqRdvNet completes a network rendezvous send (await dataDone).
	reqRdvNet
	// reqRdvShm completes a shared-memory rendezvous send (await CTS,
	// then single-copy into the receiver's buffer).
	reqRdvShm
)

// Request is a handle for a nonblocking operation. Wait must be called by
// the rank that created the request (MPI semantics); progression beyond
// the initiation happens in the rank's progress machine (progress.go)
// inside Wait, or in simulation event context.
type Request struct {
	r *Rank
	// comm, when the operation was issued through a communicator, lets
	// that communicator's revocation fail the wait, as the peer's
	// detected death does.
	comm *Comm
	kind reqKind
	// peer is the global rank on the other end; bytes the posted size.
	peer  int
	bytes int64
	tag   int
	// seq numbers a send for the fault injector (0 without one).
	seq uint64
	// pr is the receive side (reqRecv); st the send side (reqRdv*).
	pr *pendingRecv
	st *sendState
	// end closes the sender's observability span on an abandoned wait
	// (nil when observability is off).
	end  func()
	done bool
	err  error
}

// getReq returns a recycled (or fresh) request bound to r.
func (w *World) getReq(r *Rank) *Request {
	if n := len(w.freeReqs); n > 0 {
		q := w.freeReqs[n-1]
		w.freeReqs = w.freeReqs[:n-1]
		q.r = r
		return q
	}
	return &Request{r: r}
}

// putReq recycles a request. Its one caller is reapReq, which the
// progress machine calls at the end of every exchange step — the
// blocking wrappers (Send, Recv, SendRecv, SendValue and their Comm
// forms), Comm.Exchange and Comm.ExchangeSteps, which every collective,
// Barrier included, runs through — once the step's requests have
// completed; none of those calls lets the handle escape, so the release
// point is provably the last reference.
// Requests returned to callers through the nonblocking API are never
// recycled (the caller owns the handle); failed requests are kept alive
// by their error path.
func (w *World) putReq(q *Request) {
	*q = Request{}
	w.freeReqs = append(w.freeReqs, q)
}

// reapReq finishes a blocking wrapper: capture the completed request's
// error, recycle the handle on success, and hand the error back. Failed
// requests are left to the GC — their error may still be examined.
func (w *World) reapReq(q *Request) error {
	if err := q.Err(); err != nil {
		return err
	}
	w.putReq(q)
	return nil
}

// errorRequest returns a request that failed argument validation at
// initiation: Wait is a no-op and Err reports the cause.
func errorRequest(r *Rank, err error) *Request {
	return &Request{r: r, done: true, err: err}
}

// Wait blocks until the operation completes or fails. Calling Wait twice
// is a no-op, as is waiting on a request that failed initiation (check
// Err).
func (q *Request) Wait() {
	if !q.done {
		q.r.waitReqs(q)
	}
}

// Err reports the request's error: an initiation mistake (an out-of-range
// peer, a negative size — MPI-style argument errors instead of panics) or
// a completion failure (a dead peer detected mid-wait, a revoked
// communicator). Valid after initiation for the former, after Wait for
// the latter.
func (q *Request) Err() error { return q.err }

// Done reports whether Wait has completed (or was never needed).
func (q *Request) Done() bool { return q.done }

// WaitAll completes a set of requests in order, parking the calling rank
// at most once. The order only affects which request's costs are
// accounted first; total time is the same as any interleaving because
// matching and transfers advance in event context.
func WaitAll(reqs ...*Request) {
	for _, q := range reqs {
		if q != nil && !q.done {
			q.r.waitReqs(reqs...)
			return
		}
	}
}
