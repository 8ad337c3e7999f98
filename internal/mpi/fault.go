package mpi

import (
	"fmt"

	"pacc/internal/fault"
	"pacc/internal/obs"
)

// This file holds the MPI layer's resilience machinery: an IB-RC-style
// reliable-delivery model for protocol messages under injected loss, and
// the "wire board" side channel that lets collectives carry reduction
// values through the simulated message schedule for end-to-end
// correctness checks.

// netFlow injects one protocol message (eager payload, RTS, CTS, or
// rendezvous data) into the fabric with reliable delivery; deliver runs
// as an event when it lands. Without an active injector it is one fabric
// Transfer, so fault-free runs are bit-identical to builds without the
// fault subsystem.
//
// With injection active it models InfiniBand RC semantics: every attempt
// occupies the wire; a lost attempt is detected after the ack timeout
// (here folded into the attempt's own completion plus exponential
// backoff) and retransmitted, up to the retry budget. A corrupted attempt
// is delivered on schedule but fails the receiver's ICRC check — the
// payload is discarded and a NACK sends the sender down the same backoff
// and retransmit path (a corrupted message is a latency event, never a
// wrong-data event, exactly as on real IB). A path crossing an
// administratively-down link is not charged against the budget — the
// send requeues until the fault window closes, the simulator's analogue
// of IB path migration through the send queue.
func (w *World) netFlow(class fault.MsgClass, src, dst int, wire int64, seq uint64, deliver func()) {
	if !w.inj.Enabled() {
		w.fabric.Transfer(w.place.NodeOf(src), w.place.NodeOf(dst), wire, deliver)
		return
	}
	w.attemptFlow(class, src, dst, wire, seq, deliver, 0)
}

// attemptFlow makes attempt n of a message under an active injector. A
// clean attempt is one fabric Transfer; only requeues and retransmits
// build closures.
func (w *World) attemptFlow(class fault.MsgClass, src, dst int, wire int64, seq uint64, deliver func(), n int) {
	in := w.inj
	srcNode, dstNode := w.place.NodeOf(src), w.place.NodeOf(dst)
	if until, down := w.fabric.PathDownUntil(srcNode, dstNode); down {
		// Availability loss, not packet loss: reroute through the send
		// queue until the link is back, budget untouched.
		w.obs.Add(obs.CtrFaultMsgRequeues, 1)
		w.eng.At(until, func() { w.attemptFlow(class, src, dst, wire, seq, deliver, n) })
		return
	}
	// Drop and Corrupt are pure hashes of the attempt, so deciding before
	// the flow starts changes nothing.
	dropped := in.Drop(class, src, dst, seq, n)
	corrupted := false
	if !dropped {
		corrupted = in.Corrupt(class, src, dst, seq, n, w.tstateDepth(src))
	}
	if !dropped && !corrupted {
		w.fabric.Transfer(srcNode, dstNode, wire, deliver)
		return
	}
	if dropped {
		// The attempt occupied the wire but its completion (or ack) was
		// lost; the sender notices after the backoff and retransmits.
		w.obs.Add(obs.CtrFaultMsgDrops, 1)
	}
	w.fabric.Transfer(srcNode, dstNode, wire, func() {
		if corrupted {
			// Delivered on schedule, but the ICRC check rejects the
			// payload and NACKs the sender.
			w.obs.Add(obs.CtrFaultMsgCorruptions, 1)
			w.obs.Add(obs.CtrFaultMsgNacks, 1)
		}
		if n+1 >= in.RetryBudget() {
			w.obs.Add(obs.CtrFaultRetriesExhausted, 1)
			w.retriesExhausted = append(w.retriesExhausted, &IntegrityError{
				Class: class, Src: src, Dst: dst, Seq: seq,
				Attempts: n + 1, Corrupted: corrupted,
			})
			return
		}
		w.obs.Add(obs.CtrFaultMsgRetransmits, 1)
		w.eng.After(in.Backoff(n), func() { w.attemptFlow(class, src, dst, wire, seq, deliver, n+1) })
	})
}

// wireKey addresses one (sender, receiver, tag) lane of the wire board.
type wireKey struct {
	src, dst, tag int
}

// putWire enqueues a payload value on the (src,dst,tag) lane. Messages on
// one lane are non-overtaking (FIFO matching on (src,tag)), so a queue
// per lane pairs values with messages exactly. The simulation is
// cooperatively single-threaded, so the map needs no locking.
func (w *World) putWire(src, dst, tag int, v float64) {
	if w.wire == nil {
		w.wire = make(map[wireKey][]float64)
	}
	k := wireKey{src, dst, tag}
	w.wire[k] = append(w.wire[k], v)
}

// takeWire dequeues the value paired with a received message.
func (w *World) takeWire(src, dst, tag int) (float64, bool) {
	k := wireKey{src, dst, tag}
	q := w.wire[k]
	if len(q) == 0 {
		return 0, false
	}
	v := q[0]
	if len(q) == 1 {
		delete(w.wire, k)
	} else {
		w.wire[k] = q[1:]
	}
	return v, true
}

// SendValue is Send with a reduction value riding the message through the
// wire board; the matching RecvValue picks it up. Collectives use the
// pair to verify data correctness end-to-end (the simulated messages
// themselves carry only sizes).
func (r *Rank) SendValue(dst int, bytes int64, tag int, v float64) error {
	return r.SendValues(dst, bytes, tag, v)
}

// RecvValue is Recv returning the value the matching SendValue attached.
func (r *Rank) RecvValue(src int, bytes int64, tag int) (float64, error) {
	if err := r.Recv(src, bytes, tag); err != nil {
		return 0, err
	}
	v, ok := r.world.takeWire(src, r.id, tag)
	if !ok {
		return 0, fmt.Errorf("mpi: rank %d: no wire value from %d tag %d", r.id, src, tag)
	}
	return v, nil
}

// TakeWire dequeues the wire-board value of a message already received
// from global rank src with the given tag (see SendValue/RecvValue).
// Symmetric exchanges that overlap Isend/Irecv use it to pick the value
// up after WaitAll instead of through RecvValue.
func (r *Rank) TakeWire(src, tag int) (float64, bool) {
	return r.world.takeWire(src, r.id, tag)
}

// Degraded reports whether the fabric currently has a degraded or down
// link (a fabric health query, as an SM client would issue). Collectives
// use it to decide on contention-minimal fallbacks.
func (r *Rank) Degraded() bool { return r.world.fabric.Degraded() }
