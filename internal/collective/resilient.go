package collective

import (
	"fmt"

	"pacc/internal/mpi"
	"pacc/internal/obs"
	"pacc/internal/plan"
	"pacc/internal/power"
)

// This file is the ULFM-style recovery layer of the collective package:
// a generic resilient runner that turns one failure-aware collective body
// into a revoke → agree → shrink → retry loop, plus the two fault-tolerant
// allreduce entry points built on it (an imperative value-carrying chain
// and a plan-backed form that rebuilds, re-verifies and re-executes its
// schedule on the survivor group).

// restorePower is the unconditional post-round power restore: whatever a
// crashed peer left half-done, every survivor leaves the recovery round at
// fmax / T0. Both transitions are free no-ops when the core is already
// there, so healthy rounds pay nothing. Under fault stickfail= the writes
// themselves can be lost; the bounded RecoverPower retry re-issues them so
// a lost transition degrades to a few extra settle periods, not a rank
// permanently wedged at the wrong state.
func restorePower(r *mpi.Rank) {
	r.ScaleUp()
	r.SetThrottle(power.T0)
	if !r.PowerSynced() {
		r.RecoverPower(0)
	}
}

// demoteSuspects is the slow-rank-aware replanning step: census the
// fail-slow suspect set (identical on every member, see
// Comm.AgreeSuspects), let each suspect attempt to heal itself — a lost
// DVFS/throttle write is fixed by re-issuing the transition — and then
// rebuild the communicator with suspects demoted to the minimum-load tail
// positions (plan.DemoteOrder), so the next schedule built over the group
// asks the least of them. Returns comm unchanged when detection is
// disarmed or nobody is suspected; every member must call congruently.
func demoteSuspects(comm *mpi.Comm) *mpi.Comm {
	w := comm.World()
	if !w.FailSlowArmed() {
		return comm
	}
	suspects := comm.AgreeSuspects()
	if len(suspects) == 0 {
		return comm
	}
	r := comm.Owner()
	me := comm.Rank()
	for _, s := range suspects {
		if s == me {
			// Heal what is healable before being demoted: if the only
			// sickness is a stuck power transition, the re-issue clears
			// it and the demotion becomes a one-collective penalty while
			// the lag EWMA decays.
			r.RecoverPower(0)
		}
	}
	if b := w.Obs(); b != nil {
		b.Add(obs.CtrCollectiveDemotions, int64(len(suspects)))
		if b.Tracing() {
			b.Instant(r.ObsTrack(), "demote suspects", map[string]any{
				"suspects": len(suspects),
			})
		}
	}
	return comm.Sub(plan.DemoteOrder(comm.Size(), suspects))
}

// RunResilient runs body over c with crash-stop and data-corruption
// recovery. Each round every member calls body SPMD; a round whose body
// observes a recoverable error — a failure (mpi.IsFailure) or a detected
// integrity violation (IsIntegrity, e.g. a checked collective's ABFT
// mismatch) — revokes the communicator so peers blocked inside the
// aborted schedule drain out, and every survivor then joins a round
// agreement. The agreement runs after every round — successful or not —
// and carries both the failure census and an abort vote, so ranks whose
// own body completed cleanly still learn that a peer died or caught a
// checksum mismatch mid-round and retry with everyone else instead of
// diverging. After agreement every survivor restores fmax/T0 (a crashed
// peer may have aborted the schedule between a ScaleDown and its matching
// ScaleUp), shrinks the communicator to the survivors, and retries body
// on the new group.
//
// It returns the communicator the successful round ran on (== c when no
// failure happened) and the first non-recoverable error, if any.
// Recoverable errors never escape individually: they are consumed by
// recovery until body succeeds everywhere or the retry budget — one round
// per initial member — is exhausted, in which case the exhaustion error
// wraps the last recoverable error so callers can still classify it
// (mpi.IsFailure / IsIntegrity see through the wrap).
func RunResilient(c *mpi.Comm, body func(*mpi.Comm) error) (*mpi.Comm, error) {
	if c == nil {
		return nil, fmt.Errorf("collective: RunResilient needs a communicator")
	}
	r := c.Owner()
	w := r.World()
	comm := c
	var lastErr error
	for round := 0; round <= c.Size(); round++ {
		err := body(comm)
		if err != nil && !mpi.IsFailure(err) && !IsIntegrity(err) {
			restorePower(r)
			return comm, err
		}
		if err != nil {
			comm.Revoke()
		}
		failed, peerBad := comm.AgreeRound(err != nil)
		restorePower(r)
		if err == nil && len(failed) == 0 && !peerBad {
			// Clean round. With fail-slow detection armed, census the
			// suspect set and hand back a communicator with suspects
			// demoted, so an iterating caller's next collective is built
			// around the gray failure instead of gated by it.
			return demoteSuspects(comm), nil
		}
		if err != nil {
			lastErr = err
		} else if peerBad {
			lastErr = &VerificationError{Op: "resilient round", Peer: true}
		}
		if b := w.Obs(); b != nil {
			b.Add(obs.CtrCollectiveRecoveries, 1)
			if b.Tracing() {
				b.Instant(r.ObsTrack(), "collective recovery", map[string]any{
					"failed": len(failed), "round": round,
				})
			}
		}
		// Shrink even when the failed set is empty (a revoke with no dead
		// member, or a pure integrity retry): the retry needs an unrevoked
		// communicator either way, and Shrink hands back a fresh one.
		comm = comm.Shrink(failed)
		if comm == nil || comm.Size() == 0 {
			return nil, fmt.Errorf("collective: no survivors to retry on")
		}
		// Replan the retry around any gray-failed survivors: a round that
		// failed because a slow rank stalled the schedule would otherwise
		// retry into the same stall.
		comm = demoteSuspects(comm)
	}
	if lastErr != nil {
		return comm, fmt.Errorf("collective: resilient retry budget exhausted after %d rounds: %w", c.Size()+1, lastErr)
	}
	return comm, fmt.Errorf("collective: resilient retry budget exhausted after %d rounds", c.Size()+1)
}

// allreduceSumChain is one attempt of the value-carrying chain allreduce:
// partial sums flow down the chain to rank 0, the total flows back up.
// Any failure surfaces as a structured error for the resilient runner.
func allreduceSumChain(c *mpi.Comm, bytes int64, v float64, opt Options) (float64, error) {
	out, err := allreduceSumChainRed(c, bytes, redVal{v: v}, opt)
	return out.v, err
}

// allreduceSumChainRed is the chain schedule over redVal: one lane for
// the historical unchecked call, two for the checked variant. Accumulator
// writes and relay buffers pass through the memory-corruption injector.
func allreduceSumChainRed(c *mpi.Comm, bytes int64, a redVal, opt Options) (redVal, error) {
	block := c.TagBlock()
	p, me := c.Size(), c.Rank()
	r := c.Owner()
	sum := corruptRed(r, a)
	if p == 1 {
		return sum, nil
	}
	if me < p-1 {
		x, err := recvRed(c, me+1, bytes, block+me+1, a.checked)
		if err != nil {
			return redVal{checked: a.checked}, err
		}
		reduceOp(c, bytes, opt)
		sum = corruptRed(r, sum.add(x))
	}
	if me > 0 {
		if err := sendRed(c, me-1, bytes, block+me, sum); err != nil {
			return redVal{checked: a.checked}, err
		}
		total, err := recvRed(c, me-1, bytes, block+p+me-1, a.checked)
		if err != nil {
			return redVal{checked: a.checked}, err
		}
		sum = corruptRed(r, total)
	}
	if me < p-1 {
		if err := sendRed(c, me+1, bytes, block+p+me, sum); err != nil {
			return redVal{checked: a.checked}, err
		}
	}
	return sum, nil
}

// AllreduceSumFT is the fault-tolerant allreduce: every member contributes
// v, and the survivors of any crash-stop failures converge on the sum of
// the final group's contributions. It returns that sum, the communicator
// of the successful round (the shrunken survivor group after recovery),
// and the first non-failure error. The schedule is the any-size chain, so
// it keeps working no matter how many ranks recovery removes.
func AllreduceSumFT(c *mpi.Comm, bytes int64, v float64, opt Options) (float64, *mpi.Comm, error) {
	if err := checkBytes("allreduce_ft", bytes); err != nil {
		return 0, c, err
	}
	power := opt.effectivePower(bytes) != NoPower
	var sum float64
	comm, err := RunResilient(c, func(cc *mpi.Comm) error {
		var roundErr error
		timeCollective(cc, opt, "allreduce_ft", bytes, func() {
			if power {
				cc.Owner().ScaleDown()
			}
			sum, roundErr = allreduceSumChain(cc, bytes, v, opt)
			if power {
				// Runs even after a failed chain; if this rank dies before
				// reaching it, RunResilient restores the survivors.
				cc.Owner().ScaleUp()
			}
		})
		return roundErr
	})
	return sum, comm, err
}

// AllreduceFT is the plan-backed fault-tolerant allreduce. Every round
// rebuilds a schedule for the current — possibly shrunken — group,
// re-verifies it against the plan checker, and executes it; a failure
// mid-schedule aborts execution and recovery shrinks and tries again.
// opt.Plan selects the builder as usual, but a forced builder that cannot
// build for the survivor count (recursive doubling on an odd group) falls
// back to cost-based selection over the candidates that still apply.
func AllreduceFT(c *mpi.Comm, bytes int64, opt Options) (*mpi.Comm, error) {
	if err := checkBytes("allreduce_ft_plan", bytes); err != nil {
		return c, err
	}
	return RunResilient(c, func(cc *mpi.Comm) error {
		spec := planSpec(bytes, nil, opt)
		v := viewOf(cc)
		cfg := cc.World().Config()
		name := opt.Plan
		if name == "" || name == PlanAuto {
			sel, err := SelectPlanName(cfg, v, "allreduce", spec, opt.PlanObjective)
			if err != nil {
				return err
			}
			name = sel
		}
		p, err := plan.BuildNamed(name, v, spec)
		if err != nil {
			sel, serr := SelectPlanName(cfg, v, "allreduce", spec, opt.PlanObjective)
			if serr != nil {
				return err
			}
			if p, err = plan.BuildNamed(sel, v, spec); err != nil {
				return err
			}
		}
		if err := plan.Verify(p); err != nil {
			return err
		}
		var execErr error
		timeCollective(cc, opt, "allreduce_ft_plan", bytes, func() { execErr = execPlan(cc, p, opt) })
		return execErr
	})
}
