package mpi

import (
	"sort"

	"pacc/internal/fault"
	"pacc/internal/obs"
	"pacc/internal/simtime"
)

// This file implements crash-stop rank failure: the world-side state that
// records who died when, the failure detector that turns a death into
// per-peer completion signals after the detection timeout, and awaitFT —
// the failure-aware wait every blocking message operation goes through.
// The companion ulfm.go builds the recovery API (revoke, agree, shrink)
// on top of these signals.

// ftState is the world's failure-tracking state. It exists only when the
// fault spec schedules crashes or the ULFM-style API is used; a nil
// ftState means the failure machinery is fully disarmed and every wait
// takes the historical code path, keeping healthy runs bit-identical.
type ftState struct {
	// detect is the failure detector's timeout: how long after the crash
	// instant a peer blocked on the dead rank observes the failure.
	detect simtime.Duration
	// deadAt records each crashed rank's time of death.
	deadAt map[int]simtime.Time
	// sig holds per-rank failure signals: sig[r] completes at
	// deadAt[r]+detect. Created lazily by the first wait that watches r.
	sig map[int]*simtime.Future
	// revoked holds per-communicator revocation signals, keyed by the
	// communicator's tag-space id.
	revoked map[int]*simtime.Future
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
		deadAt:  map[int]simtime.Time{},
		sig:     map[int]*simtime.Future{},
		revoked: map[int]*simtime.Future{},
		agree:   map[agreeKey]*agreeState{},
	}
}

// isDead reports whether the rank has crashed (false when the failure
// machinery is disarmed).
func (w *World) isDead(id int) bool {
	if w.ft == nil {
		return false
	}
	_, dead := w.ft.deadAt[id]
	return dead
}

// Alive reports whether the rank has not crashed.
func (w *World) Alive(id int) bool { return !w.isDead(id) }

// DeadRanks returns the global ids of crashed ranks, ascending.
func (w *World) DeadRanks() []int {
	if w.ft == nil {
		return nil
	}
	out := make([]int, 0, len(w.ft.deadAt))
	for id := range w.ft.deadAt {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// crashRank executes one crash-stop failure in event context: the rank's
// process is killed at its current park point, its core goes idle, its
// failure signal is armed to fire after the detection timeout, and any
// agreement that was only waiting for this rank can now resolve.
func (w *World) crashRank(id int) {
	w.ftRequire()
	if w.isDead(id) {
		return
	}
	w.ft.deadAt[id] = w.eng.Now()
	r := w.ranks[id]
	r.core.SetBusy(false)
	if r.proc != nil {
		r.proc.Kill()
	}
	if s := w.ft.sig[id]; s != nil {
		w.scheduleFailSignal(s, w.eng.Now())
	}
	if b := w.obs; b != nil {
		b.Add(obs.CtrFaultRankCrashes, 1)
		b.Instant(r.track, "rank crashed", nil)
	}
	for _, key := range w.ft.agreeOrder {
		w.maybeResolveAgreement(w.ft.agree[key])
	}
}

// failSignal returns (creating lazily) the future that completes when
// rank's failure becomes detectable. For a rank already dead the
// completion is scheduled on creation.
func (w *World) failSignal(rank int) *simtime.Future {
	s := w.ft.sig[rank]
	if s == nil {
		s = simtime.NewFuture(w.eng)
		w.ft.sig[rank] = s
		if at, dead := w.ft.deadAt[rank]; dead {
			w.scheduleFailSignal(s, at)
		}
	}
	return s
}

// scheduleFailSignal completes s at crashedAt+detect (or now, for waits
// that start long after the death).
func (w *World) scheduleFailSignal(s *simtime.Future, crashedAt simtime.Time) {
	at := crashedAt.Add(w.ft.detect)
	if at < w.eng.Now() {
		at = w.eng.Now()
	}
	w.eng.At(at, func() {
		if !s.IsDone() {
			s.Complete()
		}
	})
}

// revokeFuture returns (creating lazily) the revocation signal of the
// communicator with the given tag-space id.
func (w *World) revokeFuture(commID int) *simtime.Future {
	f := w.ft.revoked[commID]
	if f == nil {
		f = simtime.NewFuture(w.eng)
		w.ft.revoked[commID] = f
	}
	return f
}

// awaitFT is await extended with failure detection. With the failure
// machinery disarmed (or the operation already complete) it is exactly
// await. Armed, the wait also completes when the peer's death becomes
// detectable or when the watched communicator is revoked, returning a
// structured failure error instead of blocking forever on a dead rank —
// the ack/heartbeat-timeout detection of the progression engine. A
// negative peer (or self) watches no failure signal; a nil comm watches
// no revocation.
func (r *Rank) awaitFT(f *simtime.Future, reason string, peer int, c *Comm) error {
	w := r.world
	if w.ft == nil || f.IsDone() {
		r.await(f, reason, peer)
		return nil
	}
	watch := []*simtime.Future{f}
	if peer >= 0 && peer != r.id {
		watch = append(watch, w.failSignal(peer))
	}
	var rev *simtime.Future
	if c != nil {
		rev = w.revokeFuture(c.id)
		watch = append(watch, rev)
	}
	first := f
	if len(watch) > 1 {
		first = simtime.NewFuture(w.eng)
		for _, src := range watch {
			src.Then(func() {
				if !first.IsDone() {
					first.Complete()
				}
			})
		}
	}
	r.await(first, reason, peer)
	// Completion order of preference: a completed operation is a success
	// even if a failure signal fired at the same instant.
	if f.IsDone() {
		return nil
	}
	if rev != nil && rev.IsDone() {
		return &CommRevokedError{Comm: c.id, Op: reason}
	}
	if b := w.obs; b != nil {
		b.Add(obs.CtrFaultPeerFailures, 1)
		if b.Tracing() {
			b.Instant(r.track, "peer failure detected", map[string]any{"peer": peer})
		}
	}
	return &PeerFailedError{Peer: peer, Op: reason}
}
