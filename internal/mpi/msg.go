package mpi

import (
	"fmt"

	"pacc/internal/fault"
	"pacc/internal/obs"
	"pacc/internal/simtime"
)

// msgKind distinguishes eager payloads from rendezvous request-to-send
// control messages.
type msgKind int

const (
	eagerMsg msgKind = iota
	rtsMsg
)

// inMsg is one message as seen by the receiving mailbox.
type inMsg struct {
	src, dst, tag int
	bytes         int64
	kind          msgKind
	// intraShm marks an eager message that traveled through shared
	// memory; the receiver pays the copy-out on pickup.
	intraShm bool
	// arrived completes when an eager payload is available at the
	// receiver.
	arrived *simtime.Future
	// snd is the sender-side state of a rendezvous transfer.
	snd *sendState
	// land is the message's arrival callback (World.land), built once
	// when the object is first allocated and kept by putMsg, so handing
	// it to the fabric or the engine allocates nothing.
	land func()
}

// sendState tracks a rendezvous transfer from the sender's perspective.
// It is pooled: the sender's wait and the receiver's completion each
// hold one reference, and the second release recycles it.
type sendState struct {
	src, dst int
	bytes    int64
	seq      uint64
	intraShm bool
	// refs counts the owners that have not released the state yet.
	refs int
	// cts completes when the receiver has matched the RTS (clear to
	// send). Used by the shared-memory single-copy path.
	cts simtime.Future
	// dataDone completes when the payload has fully arrived.
	dataDone simtime.Future
	// The transfer's event callbacks, built once per object:
	// shmCTS completes cts after the shared-memory notification delay;
	// ctsLanded starts the payload injection once a network CTS
	// reaches the sender; inject starts the payload flow; dataLanded
	// completes dataDone.
	shmCTS, ctsLanded, inject, dataLanded func()
}

// msgSpan opens an async message-lifecycle span on the sender's timeline
// and returns a closure that ends it; done futures complete in event
// context, so the closure is handed to Future.Then. The closure is
// idempotent: a wait abandoned by failure detection closes the span
// immediately, and the no-op second call keeps a transfer that still
// completes afterwards from double-ending it. Returns nil when the bus
// records no timeline.
func (r *Rank) msgSpan(kind string, dst int, bytes int64) func() {
	b := r.world.obs
	if !b.Tracing() {
		return nil
	}
	name := obs.TransferName(kind, bytes, r.id, dst)
	args := map[string]any{"src": r.id, "dst": dst, "bytes": bytes}
	id := b.AsyncBegin(r.track, "mpi", name, args)
	ended := false
	return func() {
		if ended {
			return
		}
		ended = true
		b.AsyncEnd(r.track, "mpi", name, id)
	}
}

// pendingRecv is a posted receive awaiting its match.
type pendingRecv struct {
	src, tag int
	match    *simtime.Future
	msg      *inMsg
}

// mailbox holds a rank's unexpected-message and posted-receive queues.
// Matching is FIFO on (src, tag); collectives disambiguate rounds through
// tags, preserving MPI's non-overtaking guarantee.
type mailbox struct {
	unexpected fifo[*inMsg]
	pending    fifo[*pendingRecv]
}

// deliver runs in event context when a message (eager payload or RTS)
// reaches dst's node: match a posted receive or queue as unexpected.
func (w *World) deliver(dst int, m *inMsg) {
	// Every delivery is forward progress for the no-progress watchdog,
	// including one that vanishes at a dead rank (the fabric moved data).
	w.eng.Progress()
	if w.isDead(dst) {
		// Crash-stop: the dead rank's HCA is gone; the message vanishes
		// instead of matching. Senders blocked on the outcome detect the
		// failure through the failure-aware wait.
		if b := w.obs; b != nil {
			b.Add(obs.CtrFaultMsgsToDead, 1)
		}
		w.putMsg(m)
		return
	}
	// Progress beacon, piggybacked on a message that arrived anyway: a
	// rank still receiving traffic is distinguishable from one wedged.
	w.sb.beat(dst)
	box := &w.ranks[dst].box
	for i := 0; i < box.pending.len(); i++ {
		pr := box.pending.at(i)
		if pr.src == m.src && pr.tag == m.tag {
			box.pending.removeAt(i)
			pr.msg = m
			pr.match.Complete()
			if m.kind == rtsMsg {
				w.sendCTS(m.snd)
			}
			return
		}
	}
	box.unexpected.push(m)
}

// land runs in event context when a message reaches its destination
// node: the eager payload flow or RTS flow is delivered, or the
// shared-memory RTS notification fires. An eager payload becomes
// available before the message is matched.
func (w *World) land(m *inMsg) {
	if m.kind == eagerMsg {
		m.arrived.Complete()
	}
	w.deliver(m.dst, m)
}

// wireBytes derates payload size in blocking mode: interrupt-driven
// progression keeps the pipeline only partially full, so the same payload
// occupies the wire longer.
func (w *World) wireBytes(bytes int64) int64 {
	if w.cfg.Mode == Blocking && bytes > 0 {
		return int64(float64(bytes) / w.cfg.BlockingDerate)
	}
	return bytes
}

// hostCost is the CPU-side per-byte handling time for inter-node payloads
// at full speed; copyDelay scales it by the current core slowdown.
func (w *World) hostCost(bytes int64) simtime.Duration {
	return simtime.DurationOf(float64(bytes) / w.cfg.HostBytesPerSec)
}

// sendCTS runs in event context when a rendezvous RTS has been matched:
// notify the sender (shared-memory path) or trigger the payload transfer
// (network path).
func (w *World) sendCTS(st *sendState) {
	if w.isDead(st.src) {
		// The sender died between posting the RTS and the match: no CPU
		// is left to observe the CTS or feed the HCA, so the transfer
		// never starts and the receiver's wait detects the failure.
		return
	}
	if st.intraShm {
		// The receiver's match flag flips in shared memory; the
		// sender observes it after a notification delay.
		w.eng.After(w.cfg.IntraStartup, st.shmCTS)
		return
	}
	w.netFlow(fault.CTS, st.dst, st.src, 0, st.seq, st.ctsLanded)
}

// getSend returns a recycled (or new) rendezvous state holding one
// reference for the sender's wait and one for the receiver's completion.
func (w *World) getSend() *sendState {
	if n := len(w.freeSends); n > 0 {
		st := w.freeSends[n-1]
		w.freeSends = w.freeSends[:n-1]
		st.refs = 2
		return st
	}
	st := &sendState{refs: 2}
	st.cts.Init(w.eng)
	st.dataDone.Init(w.eng)
	st.shmCTS = func() { st.cts.Complete() }
	st.ctsLanded = func() {
		// Payload injection: the sender-side CPU feeds the HCA at a
		// rate set by its *current* speed (a throttled sender injects
		// slower — the mechanism behind the paper's Cthrottle).
		inj := simtime.DurationOf(w.hostCost(st.bytes).Seconds() / w.ranks[st.src].copySpeed())
		w.eng.After(inj, st.inject)
	}
	st.inject = func() {
		w.netFlow(fault.Data, st.src, st.dst, w.wireBytes(st.bytes), st.seq, st.dataLanded)
	}
	st.dataLanded = func() { st.dataDone.Complete() }
	return st
}

// releaseSend drops one reference to a rendezvous state. The last
// release — the sender's wait or the receiver's completion, whichever
// returns second — recycles it: by then dataDone has completed, its
// waiters and callbacks are in the event queue, and the message that
// carried the state has left both mailbox queues. A failed wait never
// releases, so a state a failure path may still reach leaks to the GC.
func (w *World) releaseSend(st *sendState) {
	st.refs--
	if st.refs > 0 {
		return
	}
	st.cts.Reset()
	st.dataDone.Reset()
	w.freeSends = append(w.freeSends, st)
}

// Isend starts a nonblocking send of bytes to global rank dst. The send
// follows the eager protocol at or below the eager threshold (local
// completion after injection) and RTS/CTS rendezvous above it. The call
// itself takes the send's CPU-side startup and injection time; the
// returned request must be completed with Wait by this rank. Invalid
// arguments return an already-done request whose Err reports the
// mistake, MPI-error-handler style.
func (r *Rank) Isend(dst int, bytes int64, tag int) *Request {
	return r.isend(nil, dst, bytes, tag)
}

// sendBegin initiates a send to dst (a communicator rank of c, or a
// global rank when c is nil): it validates the arguments and returns the
// send's request, already done with an error on a revoked communicator
// or a bad argument. The caller then pays sendStartup before sendMid.
func (r *Rank) sendBegin(c *Comm, dst int, bytes int64, tag int) *Request {
	w := r.world
	if c != nil {
		if c.Revoked() {
			return errorRequest(r, &CommRevokedError{Comm: c.id, Op: "Isend"})
		}
		dst = c.group[dst]
	}
	if dst < 0 || dst >= w.cfg.NProcs {
		return errorRequest(r, fmt.Errorf("mpi: Isend to invalid rank %d (job has %d)",
			dst, w.cfg.NProcs))
	}
	if bytes < 0 {
		return errorRequest(r, fmt.Errorf("mpi: Isend with negative size %d", bytes))
	}
	q := w.getReq(r)
	q.comm, q.peer, q.bytes, q.tag = c, dst, bytes, tag
	if w.inj.Enabled() {
		// Only the fault injector reads sequence numbers: it hashes
		// them to pick lost and corrupted attempts.
		if r.sendSeq == nil {
			r.sendSeq = make(map[int]uint64)
		}
		r.sendSeq[dst]++
		q.seq = r.sendSeq[dst]
	}
	// Send-side progress beacon (piggybacked — no extra message, no
	// virtual time): initiating traffic is evidence the rank is alive
	// and moving, whatever its speed.
	w.sb.beat(r.id)
	return q
}

// viaShm reports whether a send to dst travels through shared memory.
// Shared memory is only usable with polling progression (§II-B);
// blocking mode falls back to the HCA loopback, handled by the network
// path (the fabric routes src==dst via loopback).
func (r *Rank) viaShm(dst int) bool {
	return r.world.place.SameNode(r.id, dst) && r.world.cfg.Mode == Polling
}

// sendStartup is the CPU-side cost of initiating q.
func (r *Rank) sendStartup(q *Request) simtime.Duration {
	if r.viaShm(q.peer) {
		return r.world.cfg.IntraStartup
	}
	return r.world.cfg.InterStartup
}

// sendMid continues q once its startup is paid. A rendezvous send posts
// its request-to-send and is initiated; an eager send returns true with
// the injection copy still to pay before sendEnd.
func (r *Rank) sendMid(q *Request) (copyTime simtime.Duration, eager bool) {
	w := r.world
	dst, bytes := q.peer, q.bytes
	if r.viaShm(dst) {
		w.countShm(bytes, bytes > w.cfg.EagerThreshold)
		if bytes <= w.cfg.EagerThreshold {
			// Double copy: sender writes the shared region now;
			// the receiver copies out on pickup.
			return w.cfg.Shm.CopyTime(bytes, 1.0), true
		}
		// Rendezvous single copy: wait for the match, then copy
		// straight into the receiver's buffer.
		st := w.getSend()
		st.src, st.dst, st.bytes, st.seq, st.intraShm = r.id, dst, bytes, q.seq, true
		end := r.msgSpan("rdv-shm", dst, bytes)
		if end != nil {
			st.dataDone.Then(end)
		}
		m := w.getMsg()
		m.src, m.dst, m.tag, m.bytes = r.id, dst, q.tag, bytes
		m.kind, m.snd = rtsMsg, st
		w.eng.After(w.cfg.IntraStartup, m.land)
		q.kind, q.st, q.end = reqRdvShm, st, end
		return 0, false
	}
	// Network path (inter-node, or intra-node loopback in blocking mode).
	w.countNet(bytes, bytes > w.cfg.EagerThreshold)
	if bytes <= w.cfg.EagerThreshold {
		// Injection copy into HCA buffers, then local completion.
		return w.hostCost(bytes), true
	}
	// The network rendezvous never completes cts: sendCTS chains CTS
	// delivery straight into the payload flow, so only dataDone is
	// observed.
	st := w.getSend()
	st.src, st.dst, st.bytes, st.seq, st.intraShm = r.id, dst, bytes, q.seq, false
	end := r.msgSpan("rdv", dst, bytes)
	if end != nil {
		st.dataDone.Then(end)
	}
	m := w.getMsg()
	m.src, m.dst, m.tag, m.bytes = r.id, dst, q.tag, bytes
	m.kind, m.snd = rtsMsg, st
	w.netFlow(fault.RTS, r.id, dst, 0, q.seq, m.land)
	q.kind, q.st, q.end = reqRdvNet, st, end
	return 0, false
}

// sendEnd injects an eager send once its copy is paid; the send is then
// locally complete.
func (r *Rank) sendEnd(q *Request) {
	w := r.world
	dst, bytes := q.peer, q.bytes
	arr := w.eng.GetFuture()
	m := w.getMsg()
	m.src, m.dst, m.tag, m.bytes = r.id, dst, q.tag, bytes
	q.done = true
	if r.viaShm(dst) {
		arr.Complete()
		if b := w.obs; b.Tracing() {
			b.Instant(r.track, obs.TransferName("eager-shm", bytes, r.id, dst), nil)
		}
		m.kind, m.intraShm, m.arrived = eagerMsg, true, arr
		w.deliver(dst, m)
		return
	}
	if end := r.msgSpan("eager", dst, bytes); end != nil {
		arr.Then(end)
	}
	m.kind, m.arrived = eagerMsg, arr
	w.netFlow(fault.Eager, r.id, dst, w.wireBytes(bytes), q.seq, m.land)
}

// Irecv posts a nonblocking receive for a message of exactly bytes from
// global rank src with the given tag. Matching happens immediately (in
// event context) so rendezvous handshakes never require the receiver to
// be inside Wait.
func (r *Rank) Irecv(src int, bytes int64, tag int) *Request {
	return r.irecv(nil, src, bytes, tag)
}

// irecv is Irecv from src, a communicator rank of c or a global rank
// when c is nil; on a revoked communicator it fails at initiation.
func (r *Rank) irecv(c *Comm, src int, bytes int64, tag int) *Request {
	w := r.world
	if c != nil {
		if c.Revoked() {
			return errorRequest(r, &CommRevokedError{Comm: c.id, Op: "Irecv"})
		}
		src = c.group[src]
	}
	if src < 0 || src >= w.cfg.NProcs {
		return errorRequest(r, fmt.Errorf("mpi: Irecv from invalid rank %d (job has %d)",
			src, w.cfg.NProcs))
	}
	if bytes < 0 {
		return errorRequest(r, fmt.Errorf("mpi: Irecv with negative size %d", bytes))
	}
	pr := w.getRecv()
	pr.src, pr.tag, pr.match = src, tag, w.eng.GetFuture()
	box := &r.box
	for i := 0; i < box.unexpected.len(); i++ {
		um := box.unexpected.at(i)
		if um.src == src && um.tag == tag {
			box.unexpected.removeAt(i)
			pr.msg = um
			pr.match.Complete()
			if um.kind == rtsMsg {
				w.sendCTS(um.snd)
			}
			break
		}
	}
	if pr.msg == nil {
		box.pending.push(pr)
	}
	q := w.getReq(r)
	q.comm, q.kind, q.peer, q.bytes, q.tag, q.pr = c, reqRecv, src, bytes, tag, pr
	return q
}

// Send is a blocking send: Isend followed by Wait. The error reports
// invalid arguments; a well-formed send always returns nil.
func (r *Rank) Send(dst int, bytes int64, tag int) error {
	return r.exchange1(nil, Step{SendTo: dst, SendBytes: bytes, SendTag: tag}, true, false)
}

// Recv is a blocking receive: Irecv followed by Wait.
func (r *Rank) Recv(src int, bytes int64, tag int) error {
	return r.exchange1(nil, Step{RecvFrom: src, RecvBytes: bytes, RecvTag: tag}, false, true)
}

// SendRecv exchanges messages with possibly different peers, completing
// both operations before returning (the workhorse of pairwise exchange).
func (r *Rank) SendRecv(dst int, sendBytes int64, src int, recvBytes int64, tag int) error {
	return r.exchange1(nil, Step{dst, sendBytes, tag, src, recvBytes, tag}, true, true)
}
