package mpi

import (
	"sort"

	"pacc/internal/fault"
	"pacc/internal/obs"
	"pacc/internal/simtime"
)

// This file implements crash-stop rank failure: the world-side state that
// records who died, the failure detector that reports a death after
// the detection timeout, and awaitFT — the failure-aware wait every
// blocking message operation goes through. An armed wait records its
// operation, peer and communicator on the rank and parks on the
// operation's future; detection and revocation take the ranks parked on
// a dead peer or a revoked communicator off their futures and wake them.
// The companion ulfm.go builds the recovery API (revoke, agree, shrink)
// on top.

// ftState is the world's failure-tracking state. It exists only when the
// fault spec schedules crashes or the ULFM-style API is used; a nil
// ftState means the failure machinery is fully disarmed and every wait
// takes the historical code path, keeping healthy runs bit-identical.
type ftState struct {
	// detect is the failure detector's timeout: how long after the crash
	// instant a peer blocked on the dead rank observes the failure.
	detect simtime.Duration
	// dead holds every crashed rank, true once the failure detector
	// has reported it (detect after the crash).
	dead map[int]bool
	// revoked marks revoked communicators by tag-space id.
	revoked map[int]bool
	// parkSeq stamps each armed wait as it begins, so the failure paths
	// release parked ranks in the order their waits began.
	parkSeq uint64
	// agree holds the in-flight and resolved agreement instances;
	// agreeOrder preserves creation order so the sweep on a crash event
	// resolves pending agreements deterministically.
	agree      map[agreeKey]*agreeState
	agreeOrder []agreeKey
}

// ftRequire arms the failure machinery (idempotent). The detection
// timeout comes from the fault spec when one is attached.
func (w *World) ftRequire() {
	if w.ft != nil {
		return
	}
	detect := fault.DefaultDetectTimeout
	if w.cfg.Fault != nil {
		detect = w.cfg.Fault.Detect()
	}
	w.ft = &ftState{
		detect:  detect,
		dead:    map[int]bool{},
		revoked: map[int]bool{},
		agree:   map[agreeKey]*agreeState{},
	}
}

// isDead reports whether the rank has crashed (false when the failure
// machinery is disarmed).
func (w *World) isDead(id int) bool {
	if w.ft == nil {
		return false
	}
	_, dead := w.ft.dead[id]
	return dead
}

// Alive reports whether the rank has not crashed.
func (w *World) Alive(id int) bool { return !w.isDead(id) }

// DeadRanks returns the global ids of crashed ranks, ascending.
func (w *World) DeadRanks() []int {
	if w.ft == nil {
		return nil
	}
	out := make([]int, 0, len(w.ft.dead))
	for id := range w.ft.dead {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// crashRank executes one crash-stop failure in event context: the rank's
// process is killed at its current park point, its core goes idle, the
// failure detector is armed to report the death after the detection
// timeout, and any agreement that was only waiting for this rank can now
// resolve.
func (w *World) crashRank(id int) {
	w.ftRequire()
	if w.isDead(id) {
		return
	}
	w.ft.dead[id] = false
	r := w.ranks[id]
	r.core.SetBusy(false)
	if r.proc != nil {
		r.proc.Kill()
	}
	w.eng.After(w.ft.detect, func() {
		w.ft.dead[id] = true
		w.releaseWaits(id, -1)
	})
	if b := w.obs; b != nil {
		b.Add(obs.CtrFaultRankCrashes, 1)
		b.Instant(r.track, "rank crashed", nil)
	}
	for _, key := range w.ft.agreeOrder {
		w.maybeResolveAgreement(w.ft.agree[key])
	}
}

// releaseWaits wakes the live ranks parked in an armed wait on the given
// peer or communicator (-1 matches none), in the order their waits
// began. A rank whose operation has already completed is left alone: it
// wakes to a success.
func (w *World) releaseWaits(peer, comm int) {
	var hit []*Rank
	for _, r := range w.ranks {
		if r.waitOn == nil || r.waitOn.IsDone() || w.isDead(r.id) {
			continue
		}
		if (peer >= 0 && r.waitPeer == peer) || (comm >= 0 && r.waitComm == comm) {
			hit = append(hit, r)
		}
	}
	sort.Slice(hit, func(i, j int) bool { return hit[i].waitSeq < hit[j].waitSeq })
	for _, r := range hit {
		r.waitOn.Release(r.proc)
		r.waitOn = nil
	}
}

// awaitFT is await extended with failure detection. With the failure
// machinery disarmed (or the operation already complete) it is exactly
// await. Armed, the wait records its operation, peer and communicator on
// the rank, and fails with a structured error instead of blocking forever
// when the peer's death is detected or the communicator is revoked — the
// ack/heartbeat-timeout detection of the progression engine. A wait that
// begins after either fails at once. A negative peer (or self) watches no
// death; a nil comm watches no revocation.
func (r *Rank) awaitFT(f *simtime.Future, reason string, peer int, c *Comm) error {
	w := r.world
	comm := -1
	if c != nil {
		comm = c.id
	}
	if peer == r.id {
		peer = -1
	}
	if w.ft == nil || f.IsDone() || (peer < 0 && comm < 0) {
		r.await(f, reason, peer, false)
		return nil
	}
	if w.ft.dead[peer] || w.ft.revoked[comm] {
		// The failure is already known: nothing will release a park.
		r.await(nil, reason, peer, true)
	} else {
		w.ft.parkSeq++
		r.waitOn, r.waitPeer, r.waitComm, r.waitSeq = f, peer, comm, w.ft.parkSeq
		r.await(f, reason, peer, true)
		r.waitOn = nil
	}
	// A completed operation is a success even if a failure was reported
	// at the same instant, and revocation outranks a peer's death.
	if f.IsDone() {
		return nil
	}
	if w.ft.revoked[comm] {
		return &CommRevokedError{Comm: comm, Op: reason}
	}
	if b := w.obs; b != nil {
		b.Add(obs.CtrFaultPeerFailures, 1)
		if b.Tracing() {
			b.Instant(r.track, "peer failure detected", map[string]any{"peer": peer})
		}
	}
	return &PeerFailedError{Peer: peer, Op: reason}
}
