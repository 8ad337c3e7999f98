package mpi

// fifo is a head-indexed FIFO used for the mailbox queues. Popping the
// head — the dominant operation, since MPI matching is FIFO on
// (src, tag) and most matches hit the front — is O(1) pointer work with
// no slice shift; only a match in the middle pays a copy-shift, which is
// required anyway to preserve non-overtaking order. The backing array is
// reused across drain cycles, so a steady-state mailbox never allocates.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) push(v T) { q.items = append(q.items, v) }

func (q *fifo[T]) len() int { return len(q.items) - q.head }

// at indexes live entries: 0 is the oldest.
func (q *fifo[T]) at(i int) T { return q.items[q.head+i] }

// removeAt deletes the i-th live entry, preserving the order of the
// rest. Removed and vacated slots are zeroed so the queue never pins a
// pooled object.
func (q *fifo[T]) removeAt(i int) {
	var zero T
	if i == 0 {
		q.items[q.head] = zero
		q.head++
		if q.head == len(q.items) {
			// Drained: rewind to reuse the full capacity.
			q.items = q.items[:0]
			q.head = 0
		} else if q.head > 64 && q.head*2 >= len(q.items) {
			// Mostly-dead prefix: compact so the array stops growing.
			n := copy(q.items, q.items[q.head:])
			for j := n; j < len(q.items); j++ {
				q.items[j] = zero
			}
			q.items = q.items[:n]
			q.head = 0
		}
		return
	}
	at := q.head + i
	copy(q.items[at:], q.items[at+1:])
	q.items[len(q.items)-1] = zero
	q.items = q.items[:len(q.items)-1]
}

// Mailbox object pools. Every point-to-point message takes an inMsg on
// the send side and (usually) a pendingRecv on the receive side; at 4k+
// ranks they would be the largest garbage source in the runtime. Both
// structs have exactly one owner at their end of life — an inMsg is
// held only by pendingRecv.msg once matched (it has left both mailbox
// queues), and a pendingRecv only by its receive request, whose wait
// runs at most once (Request.Wait is idempotent) — so they are recycled
// at the two points proven single-release: the successful end of a
// receive wait (waitRecv, which also returns the eager payload and match
// futures through Engine.PutFuture), and the dead-rank drop in deliver.
// Error paths deliberately leak to the GC: correctness over reuse. The
// other per-message objects have their own release points: a rendezvous
// sendState is recycled by releaseSend (msg.go) once both the sender's
// wait and the receiver's completion are done with it, a fabric flow by
// its own delivery event, and a blocking or collective request by
// reapReq (request.go).

// getMsg returns a recycled (or new) message. A new message gets its
// arrival callback here, once; putMsg keeps it.
func (w *World) getMsg() *inMsg {
	if n := len(w.freeMsgs); n > 0 {
		m := w.freeMsgs[n-1]
		w.freeMsgs = w.freeMsgs[:n-1]
		return m
	}
	m := new(inMsg)
	m.land = func() { w.land(m) }
	return m
}

func (w *World) putMsg(m *inMsg) {
	*m = inMsg{land: m.land}
	w.freeMsgs = append(w.freeMsgs, m)
}

func (w *World) getRecv() *pendingRecv {
	if n := len(w.freeRecvs); n > 0 {
		pr := w.freeRecvs[n-1]
		w.freeRecvs = w.freeRecvs[:n-1]
		return pr
	}
	return new(pendingRecv)
}

func (w *World) putRecv(pr *pendingRecv) {
	*pr = pendingRecv{}
	w.freeRecvs = append(w.freeRecvs, pr)
}
