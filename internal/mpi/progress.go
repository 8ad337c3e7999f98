package mpi

import (
	"fmt"

	"pacc/internal/obs"
	"pacc/internal/simtime"
)

// This file is the rank's progress machine: every blocking message call
// (Send, Recv, SendRecv, Exchange, ExchangeSteps, Isend, Wait, WaitAll,
// the value-carrying sends and receives, and the ULFM agreement) runs on
// it. A call puts its arguments in the world's call slot and parks the
// rank's coroutine once (simtime.Proc.Park). The machine takes the
// arguments in its first step, which runs in the same queue slot as soon
// as the coroutine has switched out. From then on, each wakeup dispatched
// for the rank runs the machine's next step in event context — a
// startup or copy sleep, a future wait, the failure-aware hop, the
// blocking-mode interrupt latency, a power-aware p2p transition — and
// re-parks the rank without switching into its coroutine. The step in
// which the call returns switches back in, in that same event.
//
// The machine schedules exactly the wakeups, in the same order and at
// the same instants, that the coroutine did when it parked at every one
// of those waits, so simulated behaviour is unchanged; only the host
// cost of the switches goes. The call's work runs on the engine's stack,
// so a parked coroutine's stack stays at its minimum size. A rank has at
// most one blocking call in flight, so it needs one machine; the world
// allocates all of them in one slab at its first blocking call.

// callArgs are the arguments of one blocking call.
type callArgs struct {
	// pc is the call's position (pc* constants): it starts at pcStep,
	// pcReqs or pcAgree.
	pc uint8
	// An exchange (pcStep) has the halves hasSend and hasRecv in every
	// step, ends once its one send is initiated if isend (Isend), runs
	// on c (nil for global ranks), and runs the shared relative steps
	// with tag base base (ExchangeSteps) or, when steps is nil, the one
	// step one. An agreement (pcAgree) joins agree with the vote bad,
	// as a suspect census if census.
	hasSend, hasRecv, isend, bad, census bool
	c                                    *Comm
	steps                                []Step
	base                                 int
	one                                  Step
	agree                                *agreeState
}

// callSlot carries one blocking call from a rank's coroutine to its
// machine. Ranks run one at a time and the machine takes the call
// before any other rank runs, so a world needs one slot; its buffers
// are reused, and the coroutine never allocates for a call.
type callSlot struct {
	// owner is the rank whose call the slot holds (nil once taken).
	owner *Rank
	callArgs
	// lanes are the wire-board values the call's send carries
	// (SendValues); reqs the requests a Wait or WaitAll completes.
	lanes []float64
	reqs  []*Request
}

// progress is a rank's progress machine. Its fields describe the call in
// flight.
type progress struct {
	r *Rank
	// The call's arguments, pc moving on as the call runs, and the
	// machine's own copies of the slot's lanes and requests.
	callArgs
	lanes []float64
	reqs  []*Request
	// k and i are the step and request cursors; sq and rq the current
	// step's requests; err the first step error.
	k, i   int
	sq, rq *Request
	err    error

	// rs is the position of the request being completed (rs*), ws the
	// position of the future wait in progress (ws*).
	rs, ws uint8
	// The future wait in progress: the future, the peer (-1 for none),
	// the watched communicator id (-1 for none), whether it is armed
	// (failure-aware) and parked on wf, when it began (obs), and its
	// outcome. The failure paths release armed parked waits in parkSeq
	// order (see releaseWaits).
	warmed, parked bool
	// scaled marks a request wait running at fmin under PowerAwareP2P:
	// fmax must be restored when it ends, or when a kill unwinds it.
	scaled  bool
	wf      *simtime.Future
	wwhy    string
	wpeer   int
	wcomm   int
	parkSeq uint64
	wstart  simtime.Time
	werr    error
}

// Call positions.
const (
	pcStep      uint8 = iota // begin step k
	pcSendMid                // the send's startup is paid
	pcSendEnd                // the eager send's injection copy is paid
	pcSendWait               // completing the step's send
	pcRecvWait               // completing the step's receive
	pcReqs                   // completing reqs[i]
	pcAgree                  // join the agreement
	pcAgreeJoin              // the join's startup is paid
	pcAgreeWait              // waiting for the agreement to resolve
)

// Request positions.
const (
	rsStart   uint8 = iota
	rsDown          // in the power-aware p2p drop to fmin
	rsWait          // the first wait: match, rendezvous data or CTS
	rsPayload       // receive: the eager payload
	rsRdvData       // receive: the rendezvous payload
	rsCopy          // the copy after the wait is paid
	rsUp            // in the restoring transition to fmax
)

// Wait positions.
const (
	wsIdle   uint8 = iota
	wsParked       // parked on the future (or the known failure's hop)
	wsHop          // an armed wait's same-instant hop
	wsIntr         // blocking mode: the interrupt and reschedule latency
)

// Step is one exchange step: post the receive from RecvFrom, start the
// send to SendTo, then complete the send before the receive. In
// Comm.ExchangeSteps the ranks and tags are relative (see there).
type Step struct {
	SendTo    int
	SendBytes int64
	SendTag   int
	RecvFrom  int
	RecvBytes int64
	RecvTag   int
}

// ExchangeSteps runs a sequence of exchange steps as one blocking call:
// each step progresses exactly as Exchange does, and the rank parks once
// for the whole sequence. A step names its peers and tags relative to
// the calling rank: it sends to the rank SendTo places after this one
// and receives from the rank RecvFrom places after it (either may be
// negative; both are taken modulo the communicator size), with tags
// base+SendTag and base+RecvTag. So shift schedules — dissemination,
// rings, pairwise rounds — share one read-only list among all ranks,
// and a call stores no copy of it: the list must not change until every
// rank's call has returned. Every step runs even after one fails; the
// error is the first failed step's error (a step's send error wins over
// its receive error), as with a loop of Exchange calls.
func (c *Comm) ExchangeSteps(base int, steps []Step) error {
	if len(steps) == 0 {
		return nil
	}
	return c.r.exchange(c, steps, base, Step{}, true, true)
}

// Exchange runs the canonical progression of one schedule step that both
// sends and receives: post the receive, start the send, then complete
// send before receive. Every collective exchange — imperative or executed
// from a communication plan — goes through this one sequence, so the two
// paths progress (and therefore time and trace) identically. Errors as in
// SendRecv.
func (c *Comm) Exchange(sendTo int, sendBytes int64, sendTag int, recvFrom int, recvBytes int64, recvTag int) error {
	return c.r.exchange1(c, Step{sendTo, sendBytes, sendTag, recvFrom, recvBytes, recvTag}, true, true)
}

// exchange1 runs the one step s, with absolute ranks and tags.
func (r *Rank) exchange1(c *Comm, s Step, send, recv bool) error {
	return r.exchange(c, nil, 0, s, send, recv)
}

// exchange runs the relative steps with tag base base (ExchangeSteps)
// — or, when steps is nil, the one step one — each with the chosen
// halves. Every step's requests are reaped when the step completes.
func (r *Rank) exchange(c *Comm, steps []Step, base int, one Step, send, recv bool) error {
	a := r.call(pcStep)
	a.c, a.steps, a.base, a.one, a.hasSend, a.hasRecv = c, steps, base, one, send, recv
	r.block()
	m := r.prog
	err := m.err
	m.c, m.steps, m.sq, m.rq, m.err = nil, nil, nil, nil, nil
	return err
}

// isend runs Isend (a communicator rank of c, or a global rank when c is
// nil): the send's startup and injection, with the request handed to the
// caller.
func (r *Rank) isend(c *Comm, dst int, bytes int64, tag int) *Request {
	a := r.call(pcStep)
	a.c, a.one, a.hasSend, a.isend = c, Step{SendTo: dst, SendBytes: bytes, SendTag: tag}, true, true
	r.block()
	m := r.prog
	q := m.sq
	m.c, m.sq = nil, nil
	return q
}

// waitReqs completes reqs in order (Request.Wait, WaitAll).
func (r *Rank) waitReqs(reqs ...*Request) {
	a := r.call(pcReqs)
	a.reqs = append(a.reqs[:0], reqs...)
	r.block()
}

// call claims the world's call slot, which the previous call's take left
// cleared, for a call starting at pc.
func (r *Rank) call(pc uint8) *callSlot {
	a := &r.world.call
	a.owner, a.pc = r, pc
	return a
}

// block parks the rank's coroutine once while the machine runs the call
// in the call slot. A kill unwinds the call from Park; a wait it
// interrupts at fmin restores fmax on the way out, paying the transition
// as the unwinding process.
func (r *Rank) block() {
	defer r.unwind()
	r.proc.Park((*rankCont)(r))
}

// unwind restores fmax when a kill interrupts a wait running at fmin.
func (r *Rank) unwind() {
	if m := r.prog; m != nil && m.scaled {
		m.scaled = false
		r.ScaleUp()
	}
}

// rankCont is the continuation a rank parks behind.
type rankCont Rank

// Continue runs the next step of the parked rank's call: first taking
// the call from the world's slot, then at each wakeup.
func (rc *rankCont) Continue(*simtime.Proc) bool {
	r := (*Rank)(rc)
	if a := &r.world.call; a.owner == r {
		r.take(a)
	}
	return r.prog.advance()
}

// take moves the call in a into the rank's machine. The world's first
// call allocates every rank's machine in one slab.
func (r *Rank) take(a *callSlot) {
	m := r.prog
	if m == nil {
		w := r.world
		if w.progs == nil {
			w.progs = make([]progress, len(w.ranks))
		}
		m = &w.progs[r.id]
		m.r, r.prog = r, m
	}
	m.callArgs, m.k, m.i = a.callArgs, 0, 0
	m.lanes = append(m.lanes[:0], a.lanes...)
	m.reqs = append(m.reqs[:0], a.reqs...)
	clear(a.reqs)
	a.owner, a.callArgs, a.lanes, a.reqs = nil, callArgs{}, a.lanes[:0], a.reqs[:0]
}

// step returns the call's step k with absolute ranks and tags, or false
// once every step has run.
func (m *progress) step() (Step, bool) {
	if m.steps == nil {
		return m.one, m.k == 0
	}
	if m.k == len(m.steps) {
		return Step{}, false
	}
	s := m.steps[m.k]
	p, me := m.c.Size(), m.c.Rank()
	s.SendTo = ((me+s.SendTo)%p + p) % p
	s.RecvFrom = ((me+s.RecvFrom)%p + p) % p
	s.SendTag += m.base
	s.RecvTag += m.base
	return s, true
}

// park schedules the call's next wakeup d from now and moves it to pc.
func (m *progress) park(d simtime.Duration, pc uint8) bool {
	m.r.proc.WakeAfter(d)
	m.pc = pc
	return false
}

// advance runs the call until it parks the rank (false) or ends (true).
func (m *progress) advance() bool {
	r := m.r
	for {
		switch m.pc {
		case pcStep:
			s, ok := m.step()
			if !ok {
				return true
			}
			m.sq, m.rq = nil, nil
			if m.hasRecv {
				m.rq = r.irecv(m.c, s.RecvFrom, s.RecvBytes, s.RecvTag)
			}
			m.pc = pcSendWait
			if !m.hasSend {
				continue
			}
			m.sq = r.sendBegin(m.c, s.SendTo, s.SendBytes, s.SendTag)
			if m.sq.err != nil {
				if m.isend {
					return true
				}
				continue
			}
			m.pc = pcSendMid
			if d, ok := r.busyDelay(r.sendStartup(m.sq)); ok {
				return m.park(d, pcSendMid)
			}
		case pcSendMid:
			copyTime, eager := r.sendMid(m.sq)
			m.pc = pcSendEnd
			if eager {
				if d, ok := r.copyDelay(copyTime); ok {
					return m.park(d, pcSendEnd)
				}
			}
		case pcSendEnd:
			q := m.sq
			if !q.done && q.kind == reqNone {
				r.sendEnd(q)
			}
			for _, v := range m.lanes {
				r.world.putWire(r.id, q.peer, q.tag, v)
			}
			if m.isend {
				return true
			}
			m.pc = pcSendWait
		case pcSendWait:
			if m.sq != nil && !m.waitReq(m.sq) {
				return false
			}
			m.pc = pcRecvWait
		case pcRecvWait:
			if m.rq != nil && !m.waitReq(m.rq) {
				return false
			}
			w := r.world
			var serr, rerr error
			if m.sq != nil {
				serr = w.reapReq(m.sq)
			}
			if m.rq != nil {
				rerr = w.reapReq(m.rq)
			}
			if m.err == nil {
				if serr != nil {
					m.err = serr
				} else {
					m.err = rerr
				}
			}
			m.k++
			m.pc = pcStep
		case pcReqs:
			for ; m.i < len(m.reqs); m.i++ {
				if q := m.reqs[m.i]; q != nil && !m.waitReq(q) {
					return false
				}
			}
			clear(m.reqs)
			return true
		case pcAgree:
			m.pc = pcAgreeJoin
			if d, ok := r.busyDelay(r.world.cfg.InterStartup); ok {
				return m.park(d, pcAgreeJoin)
			}
		case pcAgreeJoin:
			st, w := m.agree, r.world
			st.joined[r.id] = true
			if m.bad {
				st.bad = true
			}
			if b := w.obs; b != nil {
				ctr := obs.CtrFaultAgreements
				if m.census {
					ctr = obs.CtrFaultSuspectCensuses
				}
				b.Add(ctr, 1)
			}
			w.maybeResolveAgreement(st)
			m.pc = pcAgreeWait
		case pcAgreeWait:
			reason := "ulfm agree"
			if m.census {
				reason = "suspect census"
			}
			if !m.wait(m.agree.done, reason, -1, nil) {
				return false
			}
			m.agree = nil
			return true
		}
	}
}

// waitReq completes q: it reports true once q is done, false after
// parking the rank on the way.
func (m *progress) waitReq(q *Request) bool {
	r := m.r
	w := r.world
	if m.rs == rsStart {
		if q.done {
			return true
		}
		// §VIII power-aware p2p: an intra-node rendezvous wait runs
		// at fmin (the wait is event-driven, so only the two DVFS
		// transitions cost time).
		var pending *simtime.Future
		switch q.kind {
		case reqRecv:
			if w.place.SameNode(r.id, q.peer) && w.cfg.Mode == Polling && q.bytes > w.cfg.EagerThreshold {
				pending = q.pr.match
			}
		case reqRdvShm:
			pending = &q.st.cts
		}
		m.rs = rsWait
		if pending != nil && m.p2pScaleDown(pending) {
			return false
		}
	}
	if m.rs == rsDown {
		r.freqEnd(w.cfg.Power.FMinGHz)
		m.scaled, m.rs = true, rsWait
	}
	if m.rs != rsUp {
		var done bool
		var err error
		switch q.kind {
		case reqRecv:
			done, err = m.recv(q)
		case reqRdvNet:
			done, err = m.rdvNet(q)
		case reqRdvShm:
			done, err = m.rdvShm(q)
		default:
			done = true
		}
		if !done {
			return false
		}
		if err != nil && q.err == nil {
			q.err = err
		}
		if m.scaled {
			m.scaled = false
			if d, ok := r.freqBegin(w.cfg.Power.FMaxGHz); ok {
				r.proc.WakeAfter(d)
				m.rs = rsUp
				return false
			}
		}
	} else {
		r.freqEnd(w.cfg.Power.FMaxGHz)
	}
	q.done = true
	m.rs = rsStart
	return true
}

// p2pScaleDown implements the PowerAwareP2P option: if enabled, the core
// is at fmax (no collective is managing it), and the wait is not already
// over, drop to fmin for the duration of the wait. It reports whether it
// parked the rank on the transition (rsDown); otherwise the wait runs at
// fmin already (scaled) or was not eligible.
func (m *progress) p2pScaleDown(pending *simtime.Future) bool {
	r := m.r
	cfg := &r.world.cfg
	if !cfg.PowerAwareP2P || pending.IsDone() || r.core.FreqGHz() < cfg.Power.FMaxGHz {
		return false
	}
	if d, ok := r.freqBegin(cfg.Power.FMinGHz); ok {
		r.proc.WakeAfter(d)
		m.rs = rsDown
		return true
	}
	m.scaled = true
	return false
}

// recv progresses a posted receive: await the match, then the payload,
// recycling the mailbox objects on success.
func (m *progress) recv(q *Request) (bool, error) {
	r, pr := m.r, q.pr
	w := r.world
	for {
		switch m.rs {
		case rsWait:
			if !m.wait(pr.match, "recv match", q.peer, q.comm) {
				return false, nil
			}
			if m.werr != nil {
				return true, m.werr
			}
			if pr.msg.bytes != q.bytes {
				// A protocol bug, not a recoverable fault: surface it
				// through the engine's failure report (like a deadlock
				// or starved flow) and on the request, instead of
				// panicking.
				err := fmt.Errorf("mpi: rank %d recv size mismatch from %d tag %d: posted %d, got %d",
					r.id, q.peer, q.tag, q.bytes, pr.msg.bytes)
				w.eng.Fail(err)
				return true, err
			}
			m.rs = rsRdvData
			if pr.msg.kind == eagerMsg {
				m.rs = rsPayload
			}
		case rsPayload:
			msg := pr.msg
			if !m.wait(msg.arrived, "recv payload", q.peer, q.comm) {
				return false, nil
			}
			if m.werr != nil {
				return true, m.werr
			}
			m.rs = rsCopy
			if msg.intraShm {
				// Copy out of the shared region.
				if d, ok := r.copyDelay(w.cfg.Shm.CopyTime(msg.bytes, 1.0)); ok {
					r.proc.WakeAfter(d)
					return false, nil
				}
			}
		case rsCopy:
			// The payload future has completed and drained its chained
			// callbacks; the sender's delivery closure has already run.
			w.eng.PutFuture(pr.msg.arrived)
			m.received(q)
			return true, nil
		case rsRdvData:
			msg := pr.msg
			if !m.wait(&msg.snd.dataDone, "recv rendezvous data", q.peer, q.comm) {
				return false, nil
			}
			if m.werr != nil {
				return true, m.werr
			}
			w.releaseSend(msg.snd)
			m.received(q)
			return true, nil
		}
	}
}

// received recycles a fully received request's mailbox objects: the
// message has left both mailbox queues and the receive completes at
// most once, so the receive pair and the match future (completed,
// unreferenced outside pr) can be recycled. Abandoned or failed waits
// leak to the GC.
func (m *progress) received(q *Request) {
	w, pr := m.r.world, q.pr
	q.pr = nil
	w.eng.PutFuture(pr.match)
	w.putMsg(pr.msg)
	w.putRecv(pr)
}

// rdvNet progresses a network rendezvous send: the HCA handles the CTS
// and payload autonomously, so the wait only observes dataDone.
func (m *progress) rdvNet(q *Request) (bool, error) {
	st := q.st
	if !m.wait(&st.dataDone, "rendezvous data", q.peer, q.comm) {
		return false, nil
	}
	if m.werr != nil {
		if q.end != nil {
			q.end()
		}
		return true, m.werr
	}
	q.st = nil
	m.r.world.releaseSend(st)
	return true, nil
}

// rdvShm progresses a shared-memory rendezvous send: await the CTS, then
// single-copy into the receiver's buffer and complete the transfer.
func (m *progress) rdvShm(q *Request) (bool, error) {
	r, st := m.r, q.st
	if m.rs == rsWait {
		if !m.wait(&st.cts, "shm rendezvous cts", q.peer, q.comm) {
			return false, nil
		}
		if m.werr != nil {
			if q.end != nil {
				q.end()
			}
			return true, m.werr
		}
		m.rs = rsCopy
		if d, ok := r.copyDelay(r.world.cfg.Shm.CopyTime(q.bytes, 1.0)); ok {
			r.proc.WakeAfter(d)
			return false, nil
		}
	}
	st.dataDone.Complete()
	q.st = nil
	r.world.releaseSend(st)
	return true, nil
}

// wait is the failure-aware wait on f. The first call begins it, later
// calls continue it; it reports true once the wait is over, with its
// outcome in werr.
//
// It has the configured progression semantics: polling spins (core stays
// busy), blocking idles the core and pays the interrupt and reschedule
// latency on wakeup. With observability attached, the wait is accrued
// into the spin/block wait-time metric and, when the bus records a
// timeline, recorded as a span on the rank's timeline (carrying the peer
// rank being waited on, when known — the dependency edge the analytics
// engine's critical-path walk follows).
//
// With the failure machinery disarmed, a peer of -1 (or self) and a nil
// c, or f already complete, the wait cannot fail. Otherwise it is armed:
// it records its future, peer and communicator on the machine, and fails
// with a structured error instead of blocking forever when the peer's
// death is detected or the communicator is revoked (see releaseWaits). A
// wait that begins after either fails at once. An armed wait takes one
// more same-instant hop after it wakes, and one in place of parking when
// its failure is already known, so it resumes exactly where a wait woken
// through a completion callback would.
func (m *progress) wait(f *simtime.Future, reason string, peer int, c *Comm) bool {
	r := m.r
	w := r.world
	switch m.ws {
	case wsIdle:
		comm := -1
		if c != nil {
			comm = c.id
		}
		if peer == r.id {
			peer = -1
		}
		m.wf, m.wwhy, m.wpeer, m.wcomm, m.werr = f, reason, peer, comm, nil
		m.warmed = w.ft != nil && !f.IsDone() && (peer >= 0 || comm >= 0)
		if !m.warmed && f.IsDone() {
			return true
		}
		known := m.warmed && (w.ft.dead[peer] || w.ft.revoked[comm])
		m.parked = m.warmed && !known
		if m.parked {
			w.ft.parkSeq++
			m.parkSeq = w.ft.parkSeq
		}
		if b := w.obs; b != nil {
			m.wstart = b.Now()
		}
		if w.cfg.Mode == Blocking {
			r.core.SetBusy(false)
		}
		m.ws = wsParked
		if known {
			// The failure is already known: nothing will release a
			// park.
			r.proc.WakeAfter(0)
		} else {
			f.Enlist(r.proc, reason)
		}
		return false
	case wsParked:
		if m.warmed {
			m.ws = wsHop
			r.proc.WakeAfter(0)
			return false
		}
		fallthrough
	case wsHop:
		if w.cfg.Mode == Blocking {
			r.core.SetBusy(true)
			if d, ok := r.busyDelay(w.cfg.InterruptLatency); ok {
				m.ws = wsIntr
				r.proc.WakeAfter(d)
				return false
			}
		}
	}
	m.ws = wsIdle
	if b := w.obs; b != nil {
		end := b.Now()
		if b.Tracing() {
			var args map[string]any
			if m.wpeer >= 0 && m.wpeer != r.id {
				args = map[string]any{"peer": m.wpeer}
			}
			b.Span(r.track, "wait "+m.wwhy, m.wstart, end, args)
		}
		dur := obs.DurWaitSpin
		if w.cfg.Mode == Blocking {
			dur = obs.DurWaitBlock
		}
		b.AddDuration(dur, end.Sub(m.wstart))
	}
	if !m.warmed {
		return true
	}
	m.parked = false
	// A completed operation is a success even if a failure was reported
	// at the same instant, and revocation outranks a peer's death.
	switch {
	case m.wf.IsDone():
	case w.ft.revoked[m.wcomm]:
		m.werr = &CommRevokedError{Comm: m.wcomm, Op: m.wwhy}
	default:
		if b := w.obs; b != nil {
			b.Add(obs.CtrFaultPeerFailures, 1)
			if b.Tracing() {
				b.Instant(r.track, "peer failure detected", map[string]any{"peer": m.wpeer})
			}
		}
		m.werr = &PeerFailedError{Peer: m.wpeer, Op: m.wwhy}
	}
	return true
}
