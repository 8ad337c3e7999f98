package collective

import (
	"errors"
	"fmt"

	"pacc/internal/fault"
	"pacc/internal/mpi"
	"pacc/internal/obs"
	"pacc/internal/plan"
	"pacc/internal/simtime"
)

// ABFT-checked collectives: the value-carrying allreduce variants gain a
// checksum shadow lane that rides the same simulated messages (the
// multi-lane wire board), is reduced by the same arithmetic in the same
// order, and is compared against the value lane when the collective
// completes. The transport's ICRC already guarantees that in-flight
// corruption never reaches the application (see internal/mpi/integrity.go);
// the checked collectives close the remaining gap — corruption of the
// reduction accumulators in memory (fault.MemBurst) — by turning a
// silently wrong answer into a typed VerificationError the resilient
// runner can retry.

// VerificationError reports a failed end-to-end ABFT verification: the
// value lane and the checksum lane of a checked collective diverged, which
// means a memory-corruption event hit one of the reduction buffers after
// the transport delivered them intact.
type VerificationError struct {
	// Op names the collective whose verification failed.
	Op string
	// Sum and Check are the diverged value and checksum lanes (zero when
	// Peer is set).
	Sum, Check float64
	// Peer marks an error learned through the round agreement rather than
	// observed locally: another member detected a mismatch and voted to
	// retry the round, while this rank's own lanes agreed.
	Peer bool
}

func (e *VerificationError) Error() string {
	if e.Peer {
		return fmt.Sprintf("collective %s: abft verification failed on a peer rank (agreement vote)", e.Op)
	}
	return fmt.Sprintf("collective %s: abft checksum mismatch (sum %g, check %g)", e.Op, e.Sum, e.Check)
}

// IsIntegrity reports whether err stems from detected data corruption at
// any layer: a transport message undeliverable within its retry budget
// (mpi.IntegrityError), a failed OpVerify step in an executed plan
// (plan.IntegrityError), or a checked collective's lane mismatch
// (VerificationError). RunResilient treats all of them like a failed
// round: revoke, agree, restore power, retry.
func IsIntegrity(err error) bool {
	var ve *VerificationError
	var pe *plan.IntegrityError
	return errors.As(err, &ve) || errors.As(err, &pe) || mpi.IsIntegrity(err)
}

// redVal is the payload of one reduction message: the running sum plus,
// in checked mode, the ABFT checksum shadow lane. One-lane (unchecked)
// values move through exactly the calls the historical float64 code made,
// so the unchecked schedules stay bit-identical.
type redVal struct {
	v, chk  float64
	checked bool
}

func (a redVal) lanes() []float64 {
	if a.checked {
		return []float64{a.v, a.chk}
	}
	return []float64{a.v}
}

// add folds x into a on every lane.
func (a redVal) add(x redVal) redVal {
	a.v += x.v
	a.chk += x.chk
	return a
}

func laneCount(checked bool) int {
	if checked {
		return 2
	}
	return 1
}

func redOf(ls []float64, checked bool) redVal {
	if checked {
		return redVal{v: ls[0], chk: ls[1], checked: true}
	}
	return redVal{v: ls[0]}
}

// sendRed ships a reduction value to communicator rank dst.
func sendRed(cc *mpi.Comm, dst int, bytes int64, tag int, a redVal) error {
	return cc.SendValues(dst, bytes, tag, a.lanes()...)
}

// recvRed receives a reduction value from communicator rank src.
func recvRed(cc *mpi.Comm, src int, bytes int64, tag int, checked bool) (redVal, error) {
	ls, err := cc.RecvValues(src, bytes, tag, laneCount(checked))
	if err != nil {
		return redVal{checked: checked}, err
	}
	return redOf(ls, checked), nil
}

// maybeCorrupt passes one freshly written float64 through the injector's
// memory-corruption model: during an active burst window covering this
// rank, the value comes back with one mantissa bit flipped. A nil or
// burst-free spec is a strict no-op, preserving bit-identical behavior.
func maybeCorrupt(r *mpi.Rank, v float64) float64 {
	w := r.World()
	h, hit := w.Injector().MemCorrupt(r.ID(), r.Now().Sub(simtime.Time(0)))
	if !hit {
		return v
	}
	if b := w.Obs(); b != nil {
		b.Add(obs.CtrFaultMemCorruptions, 1)
		b.Instant(r.ObsTrack(), "mem corrupt", nil)
	}
	return fault.CorruptFloat(v, h)
}

// corruptRed exposes a reduction value's buffer to memory corruption.
// Only the value lane is at risk: the checksum lane models a small,
// register-resident shadow accumulator, which is what makes the final
// lane comparison a detector instead of a coin flip.
func corruptRed(r *mpi.Rank, a redVal) redVal {
	a.v = maybeCorrupt(r, a.v)
	return a
}

// verifyCharge charges the streaming cost of one ABFT checksum fold over
// the payload. The scalar lanes stand in for real vectors; this is the
// time cost the ≤3% overhead budget sees.
func verifyCharge(r *mpi.Rank, bytes int64) {
	if bytes <= 0 {
		return
	}
	r.StreamCompute(simtime.DurationOf(float64(bytes) / plan.DefaultVerifyBytesPerSec))
}

// verifyRed is the end-of-collective verification: fold the output
// checksum and compare lanes. Exact equality is correct here — both lanes
// accumulate the same values in the same order at every rank, so they are
// bitwise equal unless a corruption event intervened.
func verifyRed(c *mpi.Comm, op string, bytes int64, a redVal) error {
	r := c.Owner()
	verifyCharge(r, bytes)
	if a.v == a.chk {
		return nil
	}
	if b := r.World().Obs(); b != nil {
		b.Add(obs.CtrIntegrityVerifyFails, 1)
		if b.Tracing() {
			b.Instant(r.ObsTrack(), "abft verify failed", map[string]any{"op": op})
		}
	}
	return &VerificationError{Op: op, Sum: a.v, Check: a.chk}
}

// AllreduceSumChecked is AllreduceSum with end-to-end ABFT verification:
// same topology-aware schedule, same power behavior, plus a checksum lane
// on every message and a verification fold at the end. On a mismatch the
// result is returned alongside a VerificationError. Note that without an
// agreement round only the ranks downstream of the corruption observe the
// mismatch; callers that need a group-consistent verdict use the
// fault-tolerant AllreduceSumFTChecked.
func AllreduceSumChecked(c *mpi.Comm, bytes int64, v float64, opt Options) (float64, error) {
	if err := checkBytes("allreduce_topo_checked", bytes); err != nil {
		return v, err
	}
	opt.Power = opt.effectivePower(bytes)
	r := c.Owner()
	out := redVal{v: v, chk: v, checked: true}
	var vErr error
	timeCollective(c, opt, "allreduce_topo_checked", bytes, func() {
		run := func() {
			// The input checksum folds before anything can corrupt the
			// buffer; the shadow lane is trustworthy from here on.
			verifyCharge(r, bytes)
			out = allreduceSum(c, bytes, out, opt)
			vErr = verifyRed(c, "allreduce_topo_checked", bytes, out)
		}
		if opt.Power == FreqScaling || opt.Power == Proposed {
			withFreqScaling(c, run)
			return
		}
		run()
	})
	return out.v, vErr
}

// allreduceSumChainChecked is one attempt of the checked chain allreduce:
// the chain schedule of allreduceSumChain carrying a checksum lane, with
// the verification fold at the end.
func allreduceSumChainChecked(c *mpi.Comm, op string, bytes int64, v float64, opt Options) (float64, error) {
	verifyCharge(c.Owner(), bytes)
	out, err := allreduceSumChainRed(c, bytes, redVal{v: v, chk: v, checked: true}, opt)
	if err != nil {
		return 0, err
	}
	return out.v, verifyRed(c, op, bytes, out)
}

// AllreduceSumFTChecked is AllreduceSumFT with end-to-end ABFT
// verification. A failed verification is a recoverable round: the member
// that caught the mismatch votes to retry through the round agreement, so
// every survivor — including ranks whose own lanes agreed — retries
// together on a fresh communicator, exactly like a crash recovery. The
// call succeeds once a round completes with no failures and no
// verification vetoes anywhere in the group.
func AllreduceSumFTChecked(c *mpi.Comm, bytes int64, v float64, opt Options) (float64, *mpi.Comm, error) {
	if err := checkBytes("allreduce_ft_checked", bytes); err != nil {
		return 0, c, err
	}
	power := opt.effectivePower(bytes) != NoPower
	var sum float64
	comm, err := RunResilient(c, func(cc *mpi.Comm) error {
		var roundErr error
		timeCollective(cc, opt, "allreduce_ft_checked", bytes, func() {
			if power {
				cc.Owner().ScaleDown()
			}
			sum, roundErr = allreduceSumChainChecked(cc, "allreduce_ft_checked", bytes, v, opt)
			if power {
				cc.Owner().ScaleUp()
			}
		})
		return roundErr
	})
	return sum, comm, err
}
