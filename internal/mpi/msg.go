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
	src, tag int
	seq      uint64
	bytes    int64
	kind     msgKind
	// intraShm marks an eager message that traveled through shared
	// memory; the receiver pays the copy-out on pickup.
	intraShm bool
	// arrived completes when an eager payload is available at the
	// receiver.
	arrived *simtime.Future
	// snd is the sender-side state of a rendezvous transfer.
	snd *sendState
}

// sendState tracks a rendezvous transfer from the sender's perspective.
type sendState struct {
	src, dst int
	bytes    int64
	seq      uint64
	intraShm bool
	// cts completes when the receiver has matched the RTS (clear to
	// send). Used by the shared-memory single-copy path.
	cts *simtime.Future
	// dataDone completes when the payload has fully arrived.
	dataDone *simtime.Future
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
		// failure through awaitFT.
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
// at full speed; busySleep scales it by the current core slowdown.
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
		w.eng.After(w.cfg.IntraStartup, func() { st.cts.Complete() })
		return
	}
	w.netFlow(fault.CTS, st.dst, st.src, 0, st.seq, func() {
		// Payload injection: the sender-side CPU feeds the HCA at a
		// rate set by its *current* speed (a throttled sender injects
		// slower — the mechanism behind the paper's Cthrottle).
		inj := simtime.DurationOf(w.hostCost(st.bytes).Seconds() / w.ranks[st.src].copySpeed())
		w.eng.After(inj, func() {
			w.netFlow(fault.Data, st.src, st.dst, w.wireBytes(st.bytes), st.seq,
				func() { st.dataDone.Complete() })
		})
	})
}

// Isend starts a nonblocking send of bytes to global rank dst. The send
// follows the eager protocol at or below the eager threshold (local
// completion after injection) and RTS/CTS rendezvous above it. The
// returned request must be completed with Wait by this rank. Invalid
// arguments return an already-done request whose Err reports the
// mistake, MPI-error-handler style.
func (r *Rank) Isend(dst int, bytes int64, tag int) *Request {
	w := r.world
	if dst < 0 || dst >= w.cfg.NProcs {
		return errorRequest(r, fmt.Errorf("mpi: Isend to invalid rank %d (job has %d)",
			dst, w.cfg.NProcs))
	}
	if bytes < 0 {
		return errorRequest(r, fmt.Errorf("mpi: Isend with negative size %d", bytes))
	}
	if r.sendSeq == nil {
		r.sendSeq = make(map[int]uint64)
	}
	r.sendSeq[dst]++
	seq := r.sendSeq[dst]
	// Send-side progress beacon (piggybacked — no extra message, no
	// virtual time): initiating traffic is evidence the rank is alive
	// and moving, whatever its speed.
	w.sb.beat(r.id)

	// Shared memory is only usable with polling progression (§II-B);
	// blocking mode falls back to the HCA loopback, handled by the
	// network path below (the fabric routes src==dst via loopback).
	if w.place.SameNode(r.id, dst) && w.cfg.Mode == Polling {
		r.busySleep(w.cfg.IntraStartup)
		w.countShm(bytes, bytes > w.cfg.EagerThreshold)
		if bytes <= w.cfg.EagerThreshold {
			// Double copy: sender writes the shared region now;
			// the receiver copies out on pickup.
			r.copySleep(w.cfg.Shm.CopyTime(bytes, 1.0))
			arr := w.eng.GetFuture()
			arr.Complete()
			if b := w.obs; b.Tracing() {
				b.Instant(r.track, obs.TransferName("eager-shm", bytes, r.id, dst), nil)
			}
			m := w.getMsg()
			m.src, m.tag, m.seq, m.bytes = r.id, tag, seq, bytes
			m.kind, m.intraShm, m.arrived = eagerMsg, true, arr
			w.deliver(dst, m)
			return completedRequest(r)
		}
		// Rendezvous single copy: wait for the match, then copy
		// straight into the receiver's buffer.
		st := &sendState{
			src: r.id, dst: dst, bytes: bytes, intraShm: true,
			cts:      simtime.NewFuture(w.eng),
			dataDone: simtime.NewFuture(w.eng),
		}
		end := r.msgSpan("rdv-shm", dst, bytes)
		if end != nil {
			st.dataDone.Then(end)
		}
		m := w.getMsg()
		m.src, m.tag, m.seq, m.bytes = r.id, tag, seq, bytes
		m.kind, m.snd = rtsMsg, st
		w.eng.After(w.cfg.IntraStartup, func() { w.deliver(dst, m) })
		q := w.getReq(r)
		q.kind, q.peer, q.bytes, q.st, q.end = reqRdvShm, dst, bytes, st, end
		return q
	}

	// Network path (inter-node, or intra-node loopback in blocking mode).
	r.busySleep(w.cfg.InterStartup)
	w.countNet(bytes, bytes > w.cfg.EagerThreshold)
	if bytes <= w.cfg.EagerThreshold {
		// Injection copy into HCA buffers, then local completion.
		r.copySleep(w.hostCost(bytes))
		arr := w.eng.GetFuture()
		if end := r.msgSpan("eager", dst, bytes); end != nil {
			arr.Then(end)
		}
		m := w.getMsg()
		m.src, m.tag, m.seq, m.bytes = r.id, tag, seq, bytes
		m.kind, m.arrived = eagerMsg, arr
		w.netFlow(fault.Eager, r.id, dst, w.wireBytes(bytes), seq, func() {
			arr.Complete()
			w.deliver(dst, m)
		})
		return completedRequest(r)
	}
	// No cts future: the network rendezvous chains CTS delivery straight
	// into the payload flow inside sendCTS, so only dataDone is observed.
	st := &sendState{
		src: r.id, dst: dst, bytes: bytes, seq: seq,
		dataDone: simtime.NewFuture(w.eng),
	}
	end := r.msgSpan("rdv", dst, bytes)
	if end != nil {
		st.dataDone.Then(end)
	}
	m := w.getMsg()
	m.src, m.tag, m.seq, m.bytes = r.id, tag, seq, bytes
	m.kind, m.snd = rtsMsg, st
	w.netFlow(fault.RTS, r.id, dst, 0, seq, func() { w.deliver(dst, m) })
	q := w.getReq(r)
	q.kind, q.peer, q.bytes, q.st, q.end = reqRdvNet, dst, bytes, st, end
	return q
}

// waitRdvShm progresses a shared-memory rendezvous send: await the CTS
// (optionally at fmin, §VIII), then single-copy into the receiver's
// buffer and complete the transfer.
func (q *Request) waitRdvShm() error {
	r, st := q.r, q.st
	restore := r.p2pScaleDown(st.cts)
	defer restore()
	if err := r.awaitFT(st.cts, "shm rendezvous cts", q.peer, q.comm); err != nil {
		if q.end != nil {
			q.end()
		}
		return err
	}
	r.copySleep(r.world.cfg.Shm.CopyTime(q.bytes, 1.0))
	st.dataDone.Complete()
	return nil
}

// waitRdvNet progresses a network rendezvous send: the HCA handles the
// CTS and payload autonomously, so the wait only observes dataDone.
func (q *Request) waitRdvNet() error {
	if err := q.r.awaitFT(q.st.dataDone, "rendezvous data", q.peer, q.comm); err != nil {
		if q.end != nil {
			q.end()
		}
		return err
	}
	return nil
}

// Irecv posts a nonblocking receive for a message of exactly bytes from
// global rank src with the given tag. Matching happens immediately (in
// event context) so rendezvous handshakes never require the receiver to
// be inside Wait.
func (r *Rank) Irecv(src int, bytes int64, tag int) *Request {
	w := r.world
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
	q.kind, q.peer, q.bytes, q.tag, q.pr = reqRecv, src, bytes, tag, pr
	return q
}

// waitRecv progresses a posted receive: await the match, then the
// payload, recycling the mailbox objects on success.
func (q *Request) waitRecv() error {
	r, pr, src, bytes := q.r, q.pr, q.peer, q.bytes
	w := r.world
	// §VIII power-aware p2p: an intra-node rendezvous-sized
	// receive waits at fmin (the wait is event-driven, so only
	// the two DVFS transitions cost time).
	restore := nopRestore
	if w.place.SameNode(r.id, src) && w.cfg.Mode == Polling &&
		bytes > w.cfg.EagerThreshold {
		restore = r.p2pScaleDown(pr.match)
	}
	defer restore()
	if err := r.awaitFT(pr.match, "recv match", src, q.comm); err != nil {
		return err
	}
	m := pr.msg
	if m.bytes != bytes {
		// A protocol bug, not a recoverable fault: surface it
		// through the engine's failure report (like a deadlock or
		// starved flow) and on the request, instead of panicking.
		err := fmt.Errorf("mpi: rank %d recv size mismatch from %d tag %d: posted %d, got %d",
			r.id, src, q.tag, bytes, m.bytes)
		w.eng.Fail(err)
		return err
	}
	switch m.kind {
	case eagerMsg:
		if err := r.awaitFT(m.arrived, "recv payload", src, q.comm); err != nil {
			return err
		}
		if m.intraShm {
			// Copy out of the shared region.
			r.copySleep(w.cfg.Shm.CopyTime(m.bytes, 1.0))
		}
		// The payload future has completed and drained its chained
		// callbacks; the sender's delivery closure has already run.
		w.eng.PutFuture(m.arrived)
	case rtsMsg:
		if err := r.awaitFT(m.snd.dataDone, "recv rendezvous data", src, q.comm); err != nil {
			return err
		}
	}
	// Fully received: the message has left both mailbox queues and
	// this wait body runs at most once, so the receive pair and the
	// match future (completed, unreferenced outside pr) can be
	// recycled. Abandoned or failed waits above leak to the GC.
	w.eng.PutFuture(pr.match)
	w.putMsg(m)
	w.putRecv(pr)
	return nil
}

// Send is a blocking send: Isend followed by Wait. The error reports
// invalid arguments; a well-formed send always returns nil.
func (r *Rank) Send(dst int, bytes int64, tag int) error {
	q := r.Isend(dst, bytes, tag)
	q.Wait()
	return r.world.reapReq(q)
}

// Recv is a blocking receive: Irecv followed by Wait.
func (r *Rank) Recv(src int, bytes int64, tag int) error {
	q := r.Irecv(src, bytes, tag)
	q.Wait()
	return r.world.reapReq(q)
}

// SendRecv exchanges messages with possibly different peers, completing
// both operations before returning (the workhorse of pairwise exchange).
func (r *Rank) SendRecv(dst int, sendBytes int64, src int, recvBytes int64, tag int) error {
	rq := r.Irecv(src, recvBytes, tag)
	sq := r.Isend(dst, sendBytes, tag)
	sq.Wait()
	rq.Wait()
	serr := r.world.reapReq(sq)
	rerr := r.world.reapReq(rq)
	if serr != nil {
		return serr
	}
	return rerr
}
