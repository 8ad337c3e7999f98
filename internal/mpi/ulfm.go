package mpi

import (
	"fmt"

	"pacc/internal/obs"
	"pacc/internal/simtime"
)

// This file is the ULFM-style recovery API, modeled on MPI's User-Level
// Failure Mitigation chapter: Revoke forces every member of a communicator
// out of its blocking waits, AgreeFailures is the fault-tolerant agreement
// (MPI_Comm_agree) that makes all survivors converge on one failed set,
// and Shrink builds the survivor communicator. The collective layer's
// resilient runners drive the canonical loop:
//
//	err := collective(comm)          // fails with PeerFailed/CommRevoked
//	if failure { comm.Revoke() }     // wake everyone still blocked
//	failed := comm.AgreeFailures()   // all survivors see the same set
//	comm = comm.Shrink(failed)       // and rebuild on the survivors
//
// Agreement is world-mediated but SPMD-deterministic: every member calls
// AgreeFailures congruently, instances are keyed by (communicator id,
// per-communicator call counter), and one instance resolves exactly when
// every still-alive group member has joined — a member's death is itself a
// join, delivered by the crash event. The resolved failed set is the
// world's dead set restricted to the group at resolution instant, so all
// participants return identical answers by construction.

// agreeKey identifies one agreement instance: the communicator's congruent
// tag-space id plus the communicator-local call counter (congruent because
// AgreeFailures, like every collective, is called SPMD).
type agreeKey struct {
	comm, seq int
}

// agreeState is one agreement instance.
type agreeState struct {
	// group is the communicator's global-rank membership.
	group []int
	// joined marks members that called AgreeFailures.
	joined map[int]bool
	// done completes when the instance resolves (plus the protocol
	// latency charge).
	done *simtime.Future
	// failedSet is the agreed failed set (global ranks), fixed at
	// resolution.
	failedSet map[int]bool
	// bad is the OR of the members' one-bit votes (AgreeRound): true when
	// any member wants the round treated as failed even though nobody
	// died — e.g. an ABFT verification mismatch. Votes are all cast
	// before resolution (every alive member must join), so readers after
	// the await see the final value.
	bad bool
	// wantSuspects marks a census instance (AgreeSuspects): at resolution
	// the world's fail-slow scoreboard is read once into suspectSet, so
	// every participant receives the identical snapshot regardless of how
	// the board drifts while late joiners straggle in.
	wantSuspects bool
	// suspectSet is the agreed suspect set (global ranks), fixed at
	// resolution; only populated for census instances.
	suspectSet map[int]bool
	resolved   bool
}

// maybeResolveAgreement resolves st if every group member has either
// joined or died. Called when a member joins and when any rank crashes
// (the crash may have been the last missing vote).
func (w *World) maybeResolveAgreement(st *agreeState) {
	if st == nil || st.resolved {
		return
	}
	alive := 0
	for _, g := range st.group {
		if w.isDead(g) {
			continue
		}
		if !st.joined[g] {
			return
		}
		alive++
	}
	st.resolved = true
	st.failedSet = map[int]bool{}
	for _, g := range st.group {
		if w.isDead(g) {
			st.failedSet[g] = true
		}
	}
	if st.wantSuspects {
		// Snapshot the scoreboard exactly once, at the resolution
		// instant: the census every member returns is this one reading,
		// not each caller's racy local view.
		st.suspectSet = map[int]bool{}
		for _, g := range st.group {
			if !w.isDead(g) && w.sb.suspected(g) {
				st.suspectSet[g] = true
			}
		}
	}
	// Protocol latency: a fault-tolerant agreement is two binomial sweeps
	// (gather a vote, broadcast the verdict) over the survivors. The
	// charge is deterministic — a function of the survivor count only —
	// so every participant observes the same resolution instant.
	rounds := 0
	for n := 1; n < alive; n <<= 1 {
		rounds++
	}
	delay := simtime.Duration(2*rounds) * w.cfg.InterStartup
	w.eng.After(delay, func() { st.done.Complete() })
}

// AgreeFailures is a fault-tolerant agreement on the failed membership of
// this communicator (MPI_Comm_agree specialized to the failure mask): it
// blocks until every still-alive member has entered the agreement, then
// returns the communicator ranks of the dead members — the same set on
// every caller. It must be called congruently by all members (SPMD), and
// it works on a revoked communicator: agreement is exactly the operation
// that must survive revocation.
func (c *Comm) AgreeFailures() []int {
	failed, _ := c.AgreeRound(false)
	return failed
}

// AgreeRound is AgreeFailures extended with a one-bit OR vote, the
// MPI_Comm_agree flag argument specialized to "retry this round": every
// member contributes bad (true when its own round failed for a reason no
// failure detector can see, like an ABFT checksum mismatch) and all
// members return the OR of the votes alongside the agreed failed set.
// The vote rides the agreement's existing two binomial sweeps, so a
// round where everyone votes false is bit-identical — in timing, message
// count, and counters — to plain AgreeFailures. It must be called
// congruently by all members (SPMD) and shares the per-communicator
// agreement sequence with AgreeFailures.
func (c *Comm) AgreeRound(bad bool) (failed []int, anyBad bool) {
	st := c.agree(bad, false)
	return c.members(st.failedSet), st.bad
}

// AgreeSuspects is a fault-tolerant census of the fail-slow suspect set:
// it blocks until every still-alive member has entered, then returns the
// communicator ranks the detection layer suspects as gray-failed — the
// same set on every caller, because the scoreboard is read exactly once,
// at the instant the last member joins. Like AgreeFailures it must be
// called congruently by all members (SPMD), shares the per-communicator
// agreement sequence, and rides the same two binomial sweeps (identical
// latency charge). With detection disarmed it still performs the
// agreement (congruence demands every member consume the same sequence
// number) and returns nil.
func (c *Comm) AgreeSuspects() []int {
	return c.members(c.agree(false, true).suspectSet)
}

// agree joins this member to the communicator's next agreement instance,
// creating it on first entry, and blocks until the instance resolves.
// bad is the member's vote; census marks a suspect census.
func (c *Comm) agree(bad, census bool) *agreeState {
	r := c.r
	w := r.world
	w.ftRequire()
	key := agreeKey{comm: c.id, seq: c.agreeSeq}
	c.agreeSeq++
	st := w.ft.agree[key]
	if st == nil {
		st = &agreeState{
			group:  append([]int(nil), c.group...),
			joined: map[int]bool{},
			done:   simtime.NewFuture(w.eng),
		}
		w.ft.agree[key] = st
		w.ft.agreeOrder = append(w.ft.agreeOrder, key)
	}
	reason, ctr := "ulfm agree", obs.CtrFaultAgreements
	if census {
		// Set before the join latency: a crash meanwhile may resolve
		// the instance, and the census must still be taken.
		st.wantSuspects = w.sb != nil
		reason, ctr = "suspect census", obs.CtrFaultSuspectCensuses
	}
	// Joining costs one control-message initiation.
	r.busySleep(w.cfg.InterStartup)
	st.joined[r.id] = true
	if bad {
		st.bad = true
	}
	if b := w.obs; b != nil {
		b.Add(ctr, 1)
	}
	w.maybeResolveAgreement(st)
	r.await(st.done, reason, -1, false)
	return st
}

// members returns, ascending, the communicator ranks whose global ranks
// are in set.
func (c *Comm) members(set map[int]bool) []int {
	var out []int
	for cr, g := range c.group {
		if set[g] {
			out = append(out, cr)
		}
	}
	return out
}

// Revoke marks the communicator revoked: every member blocked in a message
// wait on it is released with a CommRevokedError, and subsequent
// operations on it fail immediately. Like MPI_Comm_revoke, any member that
// observed a failure calls it to force the whole group to the agreement
// step; revoking an already-revoked communicator is a no-op.
func (c *Comm) Revoke() {
	w := c.r.world
	w.ftRequire()
	if w.ft.revoked[c.id] {
		return
	}
	w.ft.revoked[c.id] = true
	w.releaseWaits(-1, c.id)
	if b := w.obs; b != nil {
		b.Add(obs.CtrFaultCommRevokes, 1)
		if b.Tracing() {
			b.Instant(c.r.track, fmt.Sprintf("revoke comm %d", c.id), nil)
		}
	}
}

// Revoked reports whether the communicator has been revoked.
func (c *Comm) Revoked() bool {
	w := c.r.world
	return w.ft != nil && w.ft.revoked[c.id]
}

// Shrink builds the survivor communicator: the members of c minus the
// given failed communicator ranks, preserving order (MPI_Comm_shrink with
// the failed set made explicit). Every survivor must call congruently with
// the identical failed set — guaranteed when the set comes out of
// AgreeFailures. Returns nil if the caller itself is excluded.
func (c *Comm) Shrink(failed []int) *Comm {
	bad := map[int]bool{}
	for _, cr := range failed {
		bad[cr] = true
	}
	keep := make([]int, 0, len(c.group))
	for cr := range c.group {
		if !bad[cr] {
			keep = append(keep, cr)
		}
	}
	return c.Sub(keep)
}
