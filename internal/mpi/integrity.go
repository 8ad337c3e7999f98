package mpi

import (
	"errors"
	"fmt"

	"pacc/internal/fault"
)

// This file is the transport's end-to-end data-integrity surface. The
// simulated fabric models InfiniBand's invariant CRC (ICRC): every
// protocol message carries a checksum computed at send and verified at
// delivery. An injected in-flight bit flip therefore never reaches the
// application — the receiver discards the payload and NACKs the sender,
// which retransmits under the ordinary retry budget and backoff (see
// netFlow in fault.go). What the transport cannot see is corruption that
// happens after delivery, in memory (fault.MemBurst); catching that is
// the job of the ABFT-checked collectives built on the multi-lane wire
// board below.

// IntegrityError reports one protocol message that exhausted its retry
// budget and was never delivered — whether the attempts were lost
// outright or delivered-but-rejected by the ICRC check. The simulation
// ends in a deadlock whose report names these messages; errors.As
// recovers the first of them from World.Run's error.
type IntegrityError struct {
	// Class is the protocol message class (eager, rts, cts, data).
	Class fault.MsgClass
	// Src, Dst are global rank ids.
	Src, Dst int
	// Seq is the message sequence number within the (src,dst) pair.
	Seq uint64
	// Attempts is how many delivery attempts were made.
	Attempts int
	// Corrupted reports whether the final attempt was an ICRC reject
	// (false: the attempt was lost without a trace).
	Corrupted bool
}

func (e *IntegrityError) Error() string {
	// The bare "class src→dst" rendering is shared with the pre-existing
	// retry-exhaustion report in World.Run, which wraps it with context.
	s := fmt.Sprintf("%v %d→%d seq %d after %d attempts", e.Class, e.Src, e.Dst, e.Seq, e.Attempts)
	if e.Corrupted {
		s += " (icrc reject)"
	}
	return s
}

// IsIntegrity reports whether err stems from data corruption the
// integrity machinery detected: a transport message undeliverable within
// its retry budget. Algorithm-level (ABFT) verification failures have
// their own types in the collective and plan packages; pacc.IsIntegrity
// unifies all of them.
func IsIntegrity(err error) bool {
	var ie *IntegrityError
	return errors.As(err, &ie)
}

// tstateDepth returns the current T-state depth of a rank's core: the
// sender-side clock-throttle level the fault injector couples in-flight
// corruption rates to (Spec.TStateErrFactor).
func (w *World) tstateDepth(rank int) int {
	return int(w.ranks[rank].core.Throttle())
}

// SendValues is SendValue carrying several payload lanes on one simulated
// message; the matching RecvValues dequeues them in order. Checked (ABFT)
// collectives ride a checksum shadow on a second lane without changing
// the message schedule — one lane is exactly SendValue. The lanes are put
// on the wire board once the send is initiated.
func (r *Rank) SendValues(dst int, bytes int64, tag int, vs ...float64) error {
	a := &r.world.call
	a.lanes = append(a.lanes[:0], vs...)
	return r.exchange1(nil, Step{SendTo: dst, SendBytes: bytes, SendTag: tag}, true, false)
}

// RecvValues is Recv returning the n lanes the matching SendValues
// attached.
func (r *Rank) RecvValues(src int, bytes int64, tag, n int) ([]float64, error) {
	if err := r.Recv(src, bytes, tag); err != nil {
		return nil, err
	}
	return r.takeWires(src, tag, n)
}

// takeWires dequeues n wire-board lanes of an already-received message.
// The returned slice aliases a per-rank scratch buffer and is valid only
// until this rank's next lane pickup; every consumer folds the lanes
// into its own state immediately (redOf), so the reuse is invisible.
func (r *Rank) takeWires(src, tag, n int) ([]float64, error) {
	if cap(r.wireBuf) < n {
		r.wireBuf = make([]float64, n)
	}
	out := r.wireBuf[:n]
	for i := range out {
		v, ok := r.world.takeWire(src, r.id, tag)
		if !ok {
			return nil, fmt.Errorf("mpi: rank %d: no wire value (lane %d of %d) from %d tag %d",
				r.id, i, n, src, tag)
		}
		out[i] = v
	}
	return out, nil
}

// SendValues is Rank.SendValues addressed by communicator rank
// (failure-aware like every communicator operation).
func (c *Comm) SendValues(dst int, bytes int64, tag int, vs ...float64) error {
	a := &c.r.world.call
	a.lanes = append(a.lanes[:0], vs...)
	return c.Send(dst, bytes, tag)
}

// RecvValues is Rank.RecvValues addressed by communicator rank.
func (c *Comm) RecvValues(src int, bytes int64, tag, n int) ([]float64, error) {
	if err := c.Recv(src, bytes, tag); err != nil {
		return nil, err
	}
	return c.r.takeWires(c.group[src], tag, n)
}

// TakeWires dequeues n wire-board lanes of a message already received
// from communicator rank src (the multi-lane TakeWire, for overlapped
// exchanges that complete through WaitAll).
func (c *Comm) TakeWires(src, tag, n int) ([]float64, error) {
	return c.r.takeWires(c.group[src], tag, n)
}
